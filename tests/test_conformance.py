from __future__ import annotations

import functools
import heapq
from collections import Counter
from dataclasses import astuple
from types import SimpleNamespace

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from genmine import (
    BudgetExceededError,
    InvalidInputError,
    SystemSpec,
    UniqueVariantLog,
    VariantLog,
    build_system,
    compute_rates,
    conformance,
    dfg_discover,
    etc_precision,
    flower_model,
    generalization_score,
    make_net,
    model_generalization,
    petri,
    playout_enumerate,
    split_system,
    token_replay_fitness,
    trace_model,
)
from genmine.conformance import _replay_variant

from . import oracles
from .oracles import etc_precision_reference, replay_counts_reference

SILENT_WEIGHTS = {"seq": 1, "xor": 1, "and": 1, "loop": 0.3}
ALPHABET = ("a", "b", "c", "d")


class TestTokenReplayFitness:
    def test_trace_model_replays_own_log_perfectly(self):
        variants = (("a", "b"), ("a", "c"), ("d",))
        lplus = UniqueVariantLog(variants)
        lstar = VariantLog(variants + (("a", "b"),))
        assert token_replay_fitness(trace_model(lplus), lstar) == 1.0

    def test_extra_event_costs_tokens(self, sequence_net_ab):
        # second b: one missing, one remaining; c = p = 4
        lstar = VariantLog((("a", "b", "b"),))
        assert token_replay_fitness(sequence_net_ab, lstar) == pytest.approx(0.75)

    def test_flower_fits_anything(self):
        lstar = VariantLog((("a", "b", "a"), ("b",), ("a", "a", "a")))
        net = flower_model(["a", "b"])
        assert token_replay_fitness(net, lstar) == 1.0

    def test_unknown_label_penalized(self, sequence_net_ab):
        fit_clean = token_replay_fitness(sequence_net_ab, VariantLog((("a", "b"),)))
        fit_alien = token_replay_fitness(sequence_net_ab, VariantLog((("a", "z", "b"),)))
        assert fit_alien < fit_clean

    def test_dfg_fits_its_source_log(self):
        variants = (("a", "b", "c"), ("a", "c"), ("a", "b", "b", "c"))
        lstar = VariantLog(variants)
        assert token_replay_fitness(dfg_discover(lstar), lstar) == 1.0

    def test_silent_final_hop(self, silent_skip_net):
        assert token_replay_fitness(silent_skip_net, VariantLog((("a",),))) == 1.0


class TestEtcPrecision:
    def test_trace_model_is_fully_precise(self):
        variants = (("a", "b"), ("a", "c"))
        lplus = UniqueVariantLog(variants)
        assert etc_precision(trace_model(lplus), VariantLog(variants)) == 1.0

    def test_flower_worked_example(self):
        # states: <>, <a>, <a,b>; A = 2 each; E = 1, 1, 2 -> 1 - 4/6
        net = flower_model(["a", "b"])
        assert etc_precision(net, VariantLog((("a", "b"),))) == pytest.approx(1 / 3)

    def test_exact_net_uniform_log(self, xor_net_abc):
        lstar = VariantLog((("a", "b"), ("a", "c")))
        assert etc_precision(xor_net_abc, lstar) == 1.0

    def test_partial_coverage_lowers_precision(self, xor_net_abc):
        # the log never takes the c branch: escaping edge at <a>
        lstar = VariantLog((("a", "b"),))
        assert etc_precision(xor_net_abc, lstar) < 1.0

    def test_unreplayable_prefix_truncated(self, sequence_net_ab):
        lstar = VariantLog((("z", "a", "b"),))
        # z is never enabled: only the root state counts
        value = etc_precision(sequence_net_ab, lstar)
        assert value == 0.0  # root offers {a}, log shows {z}: 1 escaping of 1 allowed


class TestSystemRatios:
    """The exact set ratios of a net's playout are ``compute_rates``' ``tp_s`` and ``tp``."""

    @staticmethod
    def rates(v_pn, v_s):
        return compute_rates(v_pn, v_s, v_s, ())

    def test_equal_sets(self):
        vs = {("a",), ("b",)}
        assert self.rates(vs, vs).tp_s == 1.0
        assert self.rates(vs, vs).tp == 1.0

    def test_disjoint_sets(self):
        assert self.rates({("a",)}, {("b",)}).tp_s == 0.0
        assert self.rates({("a",)}, {("b",)}).tp == 0.0

    def test_published_ratios(self):
        v_s = {(f"v{i}",) for i in range(178)}
        realistic = set(list(sorted(v_s))[:120])
        unrealistic = {(f"u{i}",) for i in range(56)}
        v_pn = realistic | unrealistic
        assert len(v_pn) == 176
        assert self.rates(v_pn, v_s).tp_s == pytest.approx(0.6742, abs=5e-4)
        assert self.rates(v_pn, v_s).tp == pytest.approx(0.6818, abs=5e-4)

    def test_subset_is_fully_precise(self):
        assert self.rates({("a",)}, {("a",), ("b",)}).tp == 1.0

    def test_empty_system_rejected(self):
        with pytest.raises(InvalidInputError):
            self.rates({("a",)}, set())


class TestGeneralizationScore:
    def test_perfect(self):
        assert generalization_score(1.0, 1.0) == 1.0

    def test_zero_annihilates(self):
        assert generalization_score(0.0, 0.9) == 0.0
        assert generalization_score(0.0, 0.0) == 0.0

    def test_half_and_one(self):
        assert generalization_score(0.5, 1.0) == pytest.approx(2 / 3, abs=1e-4)

    def test_out_of_range_rejected(self):
        with pytest.raises(InvalidInputError):
            generalization_score(1.2, 0.5)

    @given(
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=300, deadline=None)
    def test_bounds_and_symmetry(self, f, p):
        g = generalization_score(f, p)
        assert g == pytest.approx(generalization_score(p, f))
        if f + p > 0:
            assert min(f, p) - 1e-12 <= g <= max(f, p) + 1e-12
        else:
            assert g == 0.0


class TestModelGeneralization:
    def test_trace_model_on_own_variants(self):
        variants = {("a", "b"), ("a", "c")}
        net = trace_model(UniqueVariantLog(tuple(sorted(variants))))
        result = model_generalization(net, variants)
        assert result.generalization == 1.0
        assert result.scores.fitness == 1.0
        assert result.scores.precision == 1.0

    def test_pluggable_metric_functions(self, sequence_net_ab):
        result = model_generalization(
            sequence_net_ab,
            {("a", "b")},
            fitness_fn=lambda net, lstar: 0.5,
            precision_fn=lambda net, lstar: 1.0,
        )
        assert result.generalization == pytest.approx(2 / 3)

    @pytest.mark.parametrize("variants", [set(), {("a",), ()}])
    def test_empty_set_or_variant_rejected(self, sequence_net_ab, variants):
        with pytest.raises(InvalidInputError):
            model_generalization(sequence_net_ab, variants)

    def test_net_compiled_once_for_both_scorers(self, monkeypatch, xor_net_abc):
        built = []

        class CountingNet(petri.CompiledNet):
            def __init__(self, net):
                built.append(net)
                super().__init__(net)

        monkeypatch.setattr(petri, "CompiledNet", CountingNet)
        model_generalization(xor_net_abc, {("a", "b"), ("a", "d")})
        assert built == [xor_net_abc]

    @pytest.mark.parametrize("variants, message", [
        ([("a", 1)], "variant labels must be non-empty strings, got 1"),
        ([("a",), (1,)], "variant labels must be non-empty strings, got 1"),
        ([("a", None)], "variant labels must be non-empty strings, got None"),
        ([("",)], "variant labels must be non-empty strings, got ''"),
        ([()], "variants must be non-empty"),
        ([("a",), "ab"], "variants must be tuples of labels, got 'ab'"),
        ([("a",), ["b", "a"]], "variants must be tuples of labels, got ['b', 'a']"),
    ], ids=["int_label", "int_variant", "none_label", "empty_label", "empty_variant",
            "str_variant", "list_variant"])
    @pytest.mark.parametrize("score", [
        model_generalization,
        lambda net, variants: token_replay_fitness(net, VariantLog(tuple(variants))),
        lambda net, variants: etc_precision(net, VariantLog(tuple(variants))),
    ], ids=["model_generalization", "token_replay_fitness", "etc_precision"])
    def test_non_string_or_empty_labels_are_domain_errors(self, score, variants, message):
        net = flower_model(["a", "b"])
        if score is model_generalization and isinstance(variants[-1], list):
            # model_generalization reads a list variant as a tuple
            assert score(net, variants) == score(net, [tuple(v) for v in variants])
            return
        with pytest.raises(InvalidInputError) as info:
            score(net, variants)
        assert str(info.value) == message


class TestSuccessorTable:
    @pytest.mark.parametrize("case", ["system", "trace", "dfg"])
    def test_force_fired_markings_get_true_rows(self, case):
        # On a built system replay force-fires disabled transitions and then
        # reads the moves out of the markings it reaches from their rows; each
        # row it leaves in the net's table must be the enabled relation of a
        # fresh compiled net.  On the one-token trace and dfg nets replay
        # moves tokens along the arc table and adds no row, so the table
        # holds only the reachable markings the prefix walk read.
        if case == "system":
            net = build_system(SystemSpec(seed=1, depth=2, alphabet_budget=24,
                                          weights=SILENT_WEIGHTS, silent_skip=True,
                                          duplicate_label=True))
            labels = sorted(net.labels())
            lstar = VariantLog((tuple(reversed(labels)) * 2, tuple(labels), tuple(labels[:1])))
        else:
            trace, dfg, variants = _bench_sized_case()
            net, lstar = (trace if case == "trace" else dfg), VariantLog(tuple(variants))
        assert token_replay_fitness(net, lstar) < 1.0
        fresh = petri.CompiledNet(net)
        reachable = {fresh.initial}
        frontier = [fresh.initial]
        while frontier:
            for _, nxt in fresh.successors(frontier.pop()):
                if nxt not in reachable:
                    reachable.add(nxt)
                    frontier.append(nxt)
        table = net.compiled._successors
        if case == "system":
            assert table.keys() - reachable, "replay touched no force-fired marking"
        else:
            assert net.compiled.token_goal == 1
            assert table and table.keys() <= reachable
        for m, row in table.items():
            assert row == tuple((ti, fresh.fire(m, ti)) for ti in range(len(fresh.transitions))
                                if fresh.pre[ti] <= set(m))


# ---------------------------------------------------------------------------
# Differential checks against the dense-vector references in tests/oracles.py
# ---------------------------------------------------------------------------

def _outcome(fn, *args, **kwargs):
    """A result, or the budget error's message and partial count."""
    try:
        return fn(*args, **kwargs)
    except BudgetExceededError as exc:
        return ("budget", str(exc), exc.partial_count)


def _assert_matches_reference(net, lstar):
    cn = net.compiled
    memo: dict = {}  # shared by the variants of one log, as in token_replay_fitness
    for v in lstar:
        got = _outcome(lambda: astuple(_replay_variant(cn, v, memo)))
        assert got == _outcome(replay_counts_reference, net, v), v
    assert _outcome(etc_precision, net, lstar) == _outcome(etc_precision_reference, net, lstar)


@st.composite
def _logs_for(draw, net):
    """Played-out variants, unobserved ones and unknown labels, in any order."""
    played = sorted(playout_enumerate(net, max_len=4, token_cap=3))
    labels = sorted(net.labels()) + ["z"]
    observed = draw(st.lists(st.sampled_from(played), max_size=4)) if played else []
    other = draw(st.lists(
        st.lists(st.sampled_from(labels), min_size=1, max_size=5).map(tuple),
        min_size=1, max_size=4,
    ))
    return VariantLog(tuple(draw(st.permutations(observed + other))))


@st.composite
def _system_cases(draw):
    spec = SystemSpec(seed=draw(st.integers(0, 60)), depth=draw(st.sampled_from([1, 2])),
                      alphabet_budget=24, weights=SILENT_WEIGHTS, silent_skip=True,
                      duplicate_label=True)
    net = build_system(spec)
    return net, draw(_logs_for(net))


@st.composite
def _baseline_cases(draw):
    variants = draw(st.lists(
        st.lists(st.sampled_from(ALPHABET), min_size=1, max_size=4).map(tuple),
        min_size=1, max_size=5, unique=True,
    ))
    kind = draw(st.sampled_from(["trace", "dfg", "flower"]))
    if kind == "trace":
        net = trace_model(UniqueVariantLog(tuple(variants)))
    elif kind == "dfg":
        net = dfg_discover(VariantLog(tuple(variants)))
    else:
        net = flower_model({a for v in variants for a in v})
    return net, draw(_logs_for(net))


@st.composite
def _hand_made_cases(draw):
    """Nets with 0-3 finals whose arcs run from lower to higher places.

    Labels repeat, some transitions are silent, labelled ones may have an
    empty preset and any may test a further place through a self-loop; all
    firing sequences are finite.  Initial and final markings may hold
    several tokens.
    """
    n = draw(st.integers(3, 5))
    places = [f"p{i}" for i in range(n)]
    transitions, arcs = [], []
    for k in range(draw(st.integers(1, 6))):
        tid = f"t{k}"
        label = draw(st.sampled_from(ALPHABET[:3] + (None,)))
        cut = draw(st.integers(0, n - 2))
        pre = draw(st.sets(st.integers(0, cut), min_size=0 if label else 1, max_size=2))
        post = draw(st.sets(st.integers(cut + 1, n - 1), max_size=2))
        free = sorted(set(range(n)) - pre - post)
        loop = draw(st.sets(st.sampled_from(free), max_size=1)) if free else set()
        transitions.append((tid, label))
        arcs += [(places[i], tid) for i in pre | loop] + [(tid, places[i]) for i in post | loop]
    marking = st.dictionaries(st.sampled_from(places), st.integers(1, 2), min_size=1, max_size=2)
    initial = draw(marking)
    finals = draw(st.lists(marking, max_size=3))
    net = make_net(places, transitions, arcs, initial, finals)
    return net, draw(_logs_for(net))


def _token_goal(net):
    """L when every transition has one input and one output place and every
    final marking holds L tokens (L = 0 without finals); None otherwise."""
    inputs = Counter(dst for src, dst in net.arcs if src in net.places)
    outputs = Counter(src for src, dst in net.arcs if src not in net.places)
    sizes = {sum(f.values()) for f in net.finals()} or {0}
    if len(sizes) > 1 or any(inputs[t.tid] != 1 or outputs[t.tid] != 1
                             for t in net.transitions):
        return None
    return sizes.pop()


@st.composite
def _one_token_cases(draw):
    """One-token nets: each transition moves a token between two places.

    Arcs may run either way, so silent cycles occur.  The initial marking
    may hold several tokens; the finals all hold the same number, 1 to 3,
    or there are none.
    """
    n = draw(st.integers(2, 5))
    places = [f"p{i}" for i in range(n)]
    transitions, arcs = [], []
    for k in range(draw(st.integers(1, 6))):
        tid = f"t{k}"
        pre, post = draw(st.sampled_from(places)), draw(st.sampled_from(places))
        transitions.append((tid, draw(st.sampled_from(ALPHABET[:3] + (None,)))))
        arcs += [(pre, tid), (tid, post)]
    initial = draw(st.dictionaries(st.sampled_from(places), st.integers(1, 2),
                                   min_size=1, max_size=3))
    size = draw(st.integers(1, 3))
    final = st.lists(st.sampled_from(places), min_size=size, max_size=size).map(Counter)
    finals = draw(st.lists(final, max_size=3))
    net = make_net(places, transitions, arcs, initial, finals)
    return net, draw(_logs_for(net))


class TestPropositions:
    """Propositions the measures satisfy by construction.

    Replay balances its tokens on any net.  Against a built system's own
    complete playout both measures are 1.0.  Built systems are sound
    workflow nets with budgeted loops: every reachable marking can still
    reach the final marking, so the playout is finite and complete.  Every
    variant then replays without missing or remaining tokens (fitness 1.0),
    and every label a reachable marking enables after a logged prefix
    continues some logged variant, so no edge escapes (precision 1.0).
    Neither 1.0 holds for nets with dead ends (permissive playout) or for a
    truncated playout; that test draws neither.
    """

    @given(seed=st.integers(0, 10_000), depth=st.integers(0, 2),
           weights=st.sampled_from([SILENT_WEIGHTS, SystemSpec(seed=0).weights]),
           silent_skip=st.booleans(), duplicate_label=st.booleans())
    @settings(max_examples=30, deadline=None)
    def test_complete_playout_is_fit_and_precise(self, seed, depth, weights, silent_skip,
                                                 duplicate_label):
        net = build_system(SystemSpec(seed=seed, depth=depth, weights=weights,
                                      silent_skip=silent_skip, duplicate_label=duplicate_label))
        lstar = VariantLog(tuple(sorted(playout_enumerate(net, max_len=None))))
        assert token_replay_fitness(net, lstar) == 1.0
        assert etc_precision(net, lstar) == 1.0

    @given(st.one_of(_system_cases(), _baseline_cases(), _hand_made_cases(),
                     _one_token_cases()))
    @settings(max_examples=80, deadline=None)
    def test_replay_balances_tokens(self, case):
        # Every token produced or inserted as missing is consumed or left
        # remaining.  On a one-token net every firing consumes and produces
        # one token and an unknown label consumes one missing token, so
        # missing - remaining is fixed by the variant alone: its U unknown
        # labels, the L tokens of a final and the initial marking's size.
        net, lstar = case
        goal = _token_goal(net)
        memo: dict = {}
        for v in lstar:
            c = _replay_variant(net.compiled, v, memo)
            assert c.produced + c.missing == c.consumed + c.remaining, v
            if goal is not None:
                unknown = sum(1 for a in v if a not in net.labels())
                initial = sum(net.initial().values())
                assert c.missing - c.remaining == unknown + goal - initial, v
                # Both sides are the settled firing count, so any tie order
                # that settles the least (cost, firings) pair gives these counts.
                assert c.consumed - goal == c.produced - initial + unknown, v

    def test_unobserved_variant_gets_partial_credit_on_a_trace_net(self):
        # The trace net plays out only its log, yet an unobserved variant of
        # n known labels may replay with one force-fire: 1 missing and 1
        # remaining token out of n + 1 consumed and produced.
        net = trace_model(UniqueVariantLog((("a", "b", "c"), ("d", "e", "f"))))
        counts = _replay_variant(net.compiled, ("a", "b", "f"), {})
        assert astuple(counts) == (1, 1, 4, 4)
        assert token_replay_fitness(net, VariantLog((("a", "b", "f"),))) == 0.75


# Two paths replay "a" into the same state with the same cost and firings:
# t_a then silent tau, or silent tau_s then t_a2, which also tests x.  They
# consume 2 and 3 tokens, so the counts show which one the push order
# settles first.
_TIE_NET = make_net(
    ["p", "q", "r", "s", "x"],
    [("t_a", "a"), ("tau", None), ("tau_s", None), ("t_a2", "a")],
    [("p", "t_a"), ("t_a", "q"), ("q", "tau"), ("tau", "r"), ("p", "tau_s"), ("tau_s", "s"),
     ("s", "t_a2"), ("x", "t_a2"), ("t_a2", "r"), ("t_a2", "x")],
    {"p": 1, "x": 1},
    [{"r": 1, "x": 1}],
)


# Nets shaped like one-token nets that are not, so the bound must stay 0.
# Replaying "b" costs 1 both by force-firing t_b into {p0, p2} and by tau
# then t_b into {p2}; the first takes fewer firings but would rank behind
# the second under a surplus bound measured against the one-token final.
_UNEQUAL_FINALS_NET = make_net(
    ["p0", "p1", "p2"],
    [("tau", None), ("t_a", "a"), ("t_b", "b")],
    [("p0", "tau"), ("tau", "p1"), ("p0", "t_a"), ("t_a", "p0"), ("p1", "t_b"), ("t_b", "p2")],
    {"p0": 1},
    [{"p0": 1}, {"p0": 1, "p2": 1}],
)
# The empty-preset "a" adds a token at no cost.
_EMPTY_PRESET_NET = make_net(
    ["p", "q", "r"],
    [("t_a", "a"), ("t_b", "b"), ("t_c", "c")],
    [("t_a", "q"), ("q", "t_b"), ("t_b", "r"), ("p", "t_c"), ("t_c", "q")],
    {"p": 1},
    [{"r": 1}],
)
# Two clean replays of ("a", "b") on a one-token net: tau_0, a_q, b_r in
# three firings, or a_p, two silent moves and b_u in four.  The second's
# states go first among ties, as they are deeper, so a firings key that
# overrated the labels left would settle it.
_LATE_SILENT_NET = make_net(
    ["p", "q", "r", "s", "t", "u", "e"],
    [("tau_0", None), ("a_q", "a"), ("b_r", "b"), ("a_p", "a"), ("tau_1", None),
     ("tau_2", None), ("b_u", "b")],
    [("p", "tau_0"), ("tau_0", "q"), ("q", "a_q"), ("a_q", "r"), ("r", "b_r"), ("b_r", "e"),
     ("p", "a_p"), ("a_p", "s"), ("s", "tau_1"), ("tau_1", "t"), ("t", "tau_2"),
     ("tau_2", "u"), ("u", "b_u"), ("b_u", "e")],
    {"p": 1},
    [{"e": 1}],
)
_SHAPED_LOG = VariantLog((("b",), ("a", "a", "b"), ("b", "a"), ("c", "a", "b", "b"), ("z", "a"),
                          ("a", "b", "a")))


def _bench_sized_case():
    """A trace net and a dfg net of one desk-sized log, and variants to replay.

    Many of the trace net's transitions share each label, so a marking often
    enables several candidates of the next label.
    """
    spec = SystemSpec(seed=4, depth=2, alphabet_budget=8,
                      weights={"seq": 1.0, "xor": 1.5, "loop": 0.5},
                      fanout_min=2, fanout_max=3)
    truth = split_system(playout_enumerate(build_system(spec), max_len=None, token_cap=3),
                         0.7, 700)
    trace = trace_model(truth.lplus)
    variants = sorted(truth.v_s)
    labels = sorted(trace.labels())
    variants += [("z",), (labels[0], "z", labels[-1]), ("z",) + variants[0]]
    return trace, dfg_discover(truth.lplus), variants


class TestDenseReference:
    @given(_system_cases())
    @settings(max_examples=25, deadline=None)
    def test_system_nets(self, case):
        _assert_matches_reference(*case)

    @given(_baseline_cases())
    @settings(max_examples=40, deadline=None)
    def test_baseline_nets(self, case):
        _assert_matches_reference(*case)

    @given(_hand_made_cases())
    @example(case=(_TIE_NET, VariantLog((("a",),))))
    @settings(max_examples=80, deadline=None)
    def test_hand_made_nets(self, case):
        _assert_matches_reference(*case)

    @given(_one_token_cases())
    @example(case=(_UNEQUAL_FINALS_NET, _SHAPED_LOG))
    @example(case=(_EMPTY_PRESET_NET, _SHAPED_LOG))
    @settings(max_examples=80, deadline=None)
    def test_one_token_nets(self, case):
        net, lstar = case
        assert net.compiled.token_goal == _token_goal(net)
        _assert_matches_reference(net, lstar)

    def test_bound_pops_fewer_states_on_the_bench_sized_trace_net(self, monkeypatch):
        # The reference is a Dijkstra search; the token-surplus bound and
        # the next-label bound skip the states it expands below the cost of
        # an unfit variant's replay, and the firings bound with the
        # deepest-first tie-break follows one chain of a variant that
        # replays cleanly.  The pinned count shows a change of pop order.
        net, _, variants = _bench_sized_case()
        assert net.compiled.token_goal == 1
        pops: Counter = Counter()

        def counted(side):
            def pop(heap):
                pops[side] += 1
                return heapq.heappop(heap)
            return pop

        monkeypatch.setattr(conformance, "heappop", counted("replay"))
        monkeypatch.setattr(oracles, "heapq", SimpleNamespace(heappop=counted("reference"),
                                                              heappush=heapq.heappush))
        memo: dict = {}
        for v in variants:
            got = astuple(_replay_variant(net.compiled, v, memo))
            assert got == replay_counts_reference(net, v), v
        assert pops["replay"] < pops["reference"]
        assert pops["replay"] == 598

    def test_one_token_replay_settles_the_fewest_firings(self):
        net = _LATE_SILENT_NET
        assert net.compiled.token_goal == 1
        got = astuple(_replay_variant(net.compiled, ("a", "b"), {}))
        assert got == replay_counts_reference(net, ("a", "b")) == (0, 0, 4, 4)

    def test_system_nets_pop_in_the_reference_order(self, monkeypatch):
        # A built system is not a one-token net, so replay is Dijkstra's
        # search in the reference's order: each pop has the same cost,
        # position and token counts on both sides.  Entries of both heaps
        # start with the cost and end with (pos, marking, consumed, produced,
        # settled).
        net = build_system(SystemSpec(seed=1, depth=2, alphabet_budget=24,
                                      weights=SILENT_WEIGHTS, silent_skip=True,
                                      duplicate_label=True))
        assert net.compiled.token_goal is None
        variants = sorted(playout_enumerate(net, max_len=4))[:5]
        variants.append(tuple(sorted(net.labels(), reverse=True)) * 3 + ("z",))
        pops: dict = {"replay": [], "reference": []}

        def recorded(side):
            def pop(heap):
                e = heapq.heappop(heap)
                pops[side].append((e[0], e[-5], e[-3], e[-2]))
                return e
            return pop

        monkeypatch.setattr(conformance, "heappop", recorded("replay"))
        monkeypatch.setattr(oracles, "heapq", SimpleNamespace(
            heappop=recorded("reference"), heappush=heapq.heappush))
        for v in variants:
            assert astuple(_replay_variant(net.compiled, v, {})) == replay_counts_reference(net, v)
        assert pops["replay"] == pops["reference"]
        assert len(pops["replay"]) > 100

    @pytest.mark.parametrize("pop_limit", [None, *range(1, 60), 80, 120, 200])
    def test_bench_sized_trace_net(self, monkeypatch, pop_limit):
        # Without a limit the counts equal the reference's.  On these
        # one-token nets the bounded search stops at the reference's pop
        # limit or sooner, never later, with its own partial count: a replay
        # that finishes has the reference's unlimited counts, and a budget
        # error is one the reference raises at that limit too.
        trace, dfg, variants = _bench_sized_case()
        assert (len(variants), len(trace.transitions)) == (42, 113)
        assert trace.compiled.token_goal == dfg.compiled.token_goal == 1
        if pop_limit is not None:
            monkeypatch.setattr(conformance, "_REPLAY_POP_LIMIT", pop_limit)
        for net in (trace, dfg):
            memo: dict = {}
            for v in variants:
                got = _outcome(lambda: astuple(_replay_variant(net.compiled, v, memo)))
                if pop_limit is None or got[0] != "budget":
                    assert got == _outcome(replay_counts_reference, net, v), v
                else:
                    want = _outcome(replay_counts_reference, net, v, pop_limit=pop_limit)
                    assert want[:2] == got[:2], v


class TestOneTokenMoves:
    """On a one-token net replay moves single tokens along the arc table."""

    def test_unknown_label_and_force_fire_leave_the_successor_table(self, two_token_net):
        # Each variant has a "b" with no token on q, which is force-fired,
        # and a "z", which is no label of the net.
        cn = two_token_net.compiled
        cn.successors(cn.initial)
        kept = dict(cn._successors)
        for variant in (("b", "z", "a", "a"), ("a", "z", "b", "b", "a", "a")):
            got = astuple(_replay_variant(cn, variant, {}))
            assert got == replay_counts_reference(two_token_net, variant), variant
            assert got[0] >= 2
        assert cn._successors == kept


def _silent_first_net():
    """A fresh one-token net whose label fires only after a silent move:
    p -tau-> q -a-> r."""
    return make_net(["p", "q", "r"], [("tau", None), ("t_a", "a")],
                    [("p", "tau"), ("tau", "q"), ("q", "t_a"), ("t_a", "r")],
                    {"p": 1}, [{"r": 1}])


def _recording_pops(monkeypatch, sides=("replay",)):
    """Record the cost key of each pop, per side: ``replay`` is the A*'s
    heap, ``reference`` the dense reference's."""
    keys: dict = {side: [] for side in sides}

    def recorded(side):
        def pop(heap):
            e = heapq.heappop(heap)
            keys[side].append(e[0])
            return e
        return pop

    monkeypatch.setattr(conformance, "heappop", recorded("replay"))
    if "reference" in sides:
        monkeypatch.setattr(oracles, "heapq", SimpleNamespace(
            heappop=recorded("reference"), heappush=heapq.heappush))
    return keys


class TestNextLabelBound:
    """The A* adds 2 to the cost key of a state whose marking holds no token
    that can fire the next label, even after silent moves."""

    @given(_one_token_cases())
    @example(case=(_LATE_SILENT_NET, _SHAPED_LOG))
    @example(case=(_silent_first_net(), _SHAPED_LOG))
    @settings(max_examples=80, deadline=None)
    def test_cost_keys_never_decrease_within_a_replay(self, case):
        # A consistent bound pops its cost keys in order; an inadmissible
        # one pops a key below one popped before it in the same replay.
        net, lstar = case
        cn = net.compiled
        assert cn.token_goal is not None
        memo: dict = {}
        for v in lstar:
            with pytest.MonkeyPatch.context() as mp:
                keys = _recording_pops(mp)["replay"]
                got = _outcome(lambda: astuple(_replay_variant(cn, v, memo)))
            assert got == _outcome(replay_counts_reference, net, v), v
            assert keys == sorted(keys), v

    def test_table_lists_the_places_before_a_silent_move(self, monkeypatch):
        net = _silent_first_net()
        cn = net.compiled
        assert cn.token_goal == 1
        playout_enumerate(net, max_len=3)
        assert "label_places" not in vars(cn)
        p, q = cn.place_index["p"], cn.place_index["q"]
        assert cn.label_places == {"a": frozenset({p, q})}
        keys = _recording_pops(monkeypatch, ("replay", "reference"))
        for v in (("a",), ("b", "a")):
            keys["replay"].clear()
            keys["reference"].clear()
            got = astuple(_replay_variant(cn, v, {}))
            assert got == replay_counts_reference(net, v), v
            assert len(keys["replay"]) <= len(keys["reference"]), v

    def test_no_table_on_a_net_that_is_not_one_token(self):
        cn = _TIE_NET.compiled
        assert cn.token_goal is None
        for v in (("a",), ("a", "a"), ("z",)):
            assert astuple(_replay_variant(cn, v, {})) == replay_counts_reference(_TIE_NET, v)
        assert "label_places" not in vars(cn)
        assert cn.label_places is None


def _reference_fitness(net, lstar):
    """The log-level formula on the summed counts of the dense reference."""
    missing, remaining, consumed, produced = map(
        sum, zip(*(replay_counts_reference(net, v) for v in lstar)))
    miss_term = 1.0 if consumed == 0 else 1.0 - missing / consumed
    rem_term = 1.0 if produced == 0 else 1.0 - remaining / produced
    return 0.5 * miss_term + 0.5 * rem_term


def _counting_replays(monkeypatch):
    """Record each variant that reaches the A* replay."""
    calls = []
    replay = conformance._replay_variant

    def counted(cn, v, memo):
        calls.append(v)
        return replay(cn, v, memo)

    monkeypatch.setattr(conformance, "_replay_variant", counted)
    return calls


class TestCleanReplays:
    """On single-output nets, where every transition puts one token, the
    variants that replay cleanly settle on the walk over their prefixes;
    only the others reach the A* replay.  Other nets replay every variant
    with the A*."""

    @given(st.one_of(_one_token_cases(), _baseline_cases(), _system_cases(),
                     _hand_made_cases()))
    @settings(max_examples=80, deadline=None)
    def test_fitness_equals_the_summed_reference_counts(self, case):
        net, lstar = case
        try:
            want = _reference_fitness(net, lstar)
        except BudgetExceededError:
            assume(False)
        assert token_replay_fitness(net, lstar) == want

    @pytest.mark.parametrize("start, other", [("p", "q"), ("q", "p")])
    def test_each_marking_keeps_its_fewest_silent_firings(self, start, other):
        # "a" reaches r from the start place directly, or after a silent move
        # from the other place; either place may come first in the walk state.
        net = make_net(["p", "q", "r"], [("tau", None), ("a_start", "a"), ("a_other", "a")],
                       [(start, "tau"), ("tau", other), (start, "a_start"), ("a_start", "r"),
                        (other, "a_other"), ("a_other", "r")],
                       {start: 1}, [{"r": 1}])
        lstar = VariantLog((("a",), ("a", "a")))
        clean = conformance._walk_log(net.compiled, lstar).clean
        assert clean == {("a",): 2}
        assert replay_counts_reference(net, ("a",)) == (0, 0, 2, 2)
        assert token_replay_fitness(net, lstar) == _reference_fitness(net, lstar)

    def test_walk_gives_up_past_the_closure_limit(self, monkeypatch):
        # Two tokens that a silent cycle moves between p and q reach three
        # markings before the first "a", so a limit of 2 stops the walk at
        # its start and every variant, the clean ("a", "a") too, falls back.
        net = make_net(["p", "q", "r"], [("tau_pq", None), ("tau_qp", None), ("t_a", "a")],
                       [("p", "tau_pq"), ("tau_pq", "q"), ("q", "tau_qp"), ("tau_qp", "p"),
                        ("q", "t_a"), ("t_a", "r")],
                       {"p": 2}, [{"r": 2}])
        assert net.compiled.token_goal == 2
        lstar = VariantLog((("a", "a"), ("a",), ("a", "a", "a")))
        calls = _counting_replays(monkeypatch)
        assert token_replay_fitness(net, lstar) == _reference_fitness(net, lstar)
        assert calls == [("a",), ("a", "a", "a")]
        assert replay_counts_reference(net, ("a", "a")) == (0, 0, 6, 6)
        calls.clear()
        monkeypatch.setattr(conformance, "_CLOSURE_LIMIT", 2)
        assert token_replay_fitness(net, lstar) == _reference_fitness(net, lstar)
        assert calls == list(lstar)

    def test_only_unclean_variants_reach_the_replay_on_the_bench_sized_nets(self, monkeypatch):
        trace, dfg, variants = _bench_sized_case()
        lstar = VariantLog(tuple(variants))
        calls = _counting_replays(monkeypatch)
        for net, pinned in ((trace, 15), (dfg, 3)):
            calls.clear()
            assert token_replay_fitness(net, lstar) == _reference_fitness(net, lstar)
            unclean = [v for v in variants if replay_counts_reference(net, v)[:2] != (0, 0)]
            assert calls == unclean
            assert len(calls) == pinned

    @staticmethod
    def _silent_system():
        """A built system with silent skips, duplicate labels and a loop but
        no AND block, and its complete playout, 258 variants."""
        net = build_system(SystemSpec(seed=1, depth=2, alphabet_budget=24,
                                      weights=SILENT_WEIGHTS, silent_skip=True,
                                      duplicate_label=True))
        return net, sorted(playout_enumerate(net, max_len=None))

    def test_only_misfits_reach_the_replay_on_single_output_nets(self, monkeypatch):
        net, v_s = self._silent_system()
        assert net.compiled.single_output and net.compiled.token_goal is None
        labels = sorted(net.labels())
        misfits = [("z",), (labels[0], "z", labels[-1]), v_s[0][::-1]]
        lstar = VariantLog(tuple(v_s + misfits))
        calls = _counting_replays(monkeypatch)
        assert token_replay_fitness(net, lstar) == _reference_fitness(net, lstar)
        assert (len(v_s), calls) == (258, misfits)
        # A silent AND split puts a token on each branch, so an AND net
        # replays every variant with the A*.
        calls.clear()
        and_net = build_system(SystemSpec(seed=0, depth=1, weights={"and": 1}))
        assert not and_net.compiled.single_output
        and_log = VariantLog(tuple(sorted(playout_enumerate(and_net, max_len=None))))
        assert token_replay_fitness(and_net, and_log) == 1.0
        assert calls == list(and_log) and len(calls) == 6
        trace, dfg, variants = _bench_sized_case()
        flower = flower_model({a for v in variants for a in v})
        assert trace.compiled.single_output and dfg.compiled.single_output
        assert flower.compiled.single_output

    def test_clean_variants_settle_past_the_pop_limit(self, monkeypatch):
        # Five pops are too few for the A* to settle most of these variants
        # alone, yet the walk settles all of them, as on one-token nets.
        net, v_s = self._silent_system()
        monkeypatch.setattr(conformance, "_REPLAY_POP_LIMIT", 5)
        alone = [_outcome(_replay_variant, net.compiled, v, {}) for v in v_s]
        raised = [got[1] for got in alone if isinstance(got, tuple)]
        assert raised == ["token replay exceeded 5 state expansions"] * 252
        assert token_replay_fitness(net, VariantLog(tuple(v_s))) == 1.0


@st.composite
def _and_block_cases(draw):
    """Built systems with an AND block: a silent split puts several tokens."""
    net = build_system(SystemSpec(seed=draw(st.integers(0, 60)), depth=2,
                                  weights={"and": 2, "xor": 1, "loop": 0.3},
                                  silent_skip=draw(st.booleans()),
                                  duplicate_label=draw(st.booleans())))
    assume(not net.compiled.single_output)
    return net, draw(_logs_for(net))


def _fresh(net):
    """A copy of ``net`` with its own compiled form."""
    return petri.net_from_dict(petri.net_to_dict(net))


def _with_repeats(draw, lstar):
    """The variants of ``lstar``, each one to three times, in its order."""
    repeats = draw(st.lists(st.integers(1, 3), min_size=len(lstar), max_size=len(lstar)))
    return [v for v, r in zip(lstar, repeats) for _ in range(r)]


@st.composite
def _repeating_system_cases(draw):
    """A built system with silent skips and duplicate labels, and a shuffled
    log in which variants repeat."""
    net, lstar = draw(_system_cases())
    return net, VariantLog(tuple(draw(st.permutations(_with_repeats(draw, lstar)))))


@st.composite
def _reordered_logs(draw):
    """A built system with silent skips and duplicate labels or with an AND
    block, and orders of one log in which variants repeat: sorted, as
    drawn and reversed, then other shuffles."""
    net, lstar = draw(st.one_of(_system_cases(), _and_block_cases()))
    log = _with_repeats(draw, lstar)
    shuffles = draw(st.lists(st.permutations(log), max_size=3))
    return net, [VariantLog(tuple(o)) for o in (sorted(log), log, log[::-1], *shuffles)]


class TestSortedWalk:
    """The walk keeps each trie node as a range of the log's sorted distinct
    variants, yet scores an unsorted log with repeats as the references do,
    and past the closure limit raises the same error whatever the log's
    order."""

    @given(_repeating_system_cases())
    @settings(max_examples=60, deadline=None)
    def test_shuffled_logs_with_repeats_match_the_references(self, case):
        net, lstar = case
        assert _outcome(etc_precision, net, lstar) == _outcome(etc_precision_reference, net, lstar)
        try:
            want = _reference_fitness(net, lstar)
        except BudgetExceededError:
            assume(False)
        assert token_replay_fitness(net, lstar) == want

    @staticmethod
    def _two_failures_net():
        """After "a", two "q" transitions reach two silent chains of two
        markings each; after "c", "p" ends cleanly and two "r" transitions
        reach silent chains of three and two markings."""
        chains = {"x": 2, "u": 2, "y": 3, "w": 2}
        places = ["s", "A", "C", "P"] + [f"{c}{i}" for c, n in chains.items() for i in range(n)]
        transitions = [("t_a", "a"), ("t_c", "c"), ("t_p", "p"), ("t_qx", "q"), ("t_qu", "q"),
                       ("t_ry", "r"), ("t_rw", "r")]
        arcs = [("s", "t_a"), ("t_a", "A"), ("s", "t_c"), ("t_c", "C"), ("C", "t_p"), ("t_p", "P"),
                ("A", "t_qx"), ("t_qx", "x0"), ("A", "t_qu"), ("t_qu", "u0"),
                ("C", "t_ry"), ("t_ry", "y0"), ("C", "t_rw"), ("t_rw", "w0")]
        for c, n in chains.items():
            for i in range(n - 1):
                transitions.append((f"tau_{c}{i}", None))
                arcs += [(f"{c}{i}", f"tau_{c}{i}"), (f"tau_{c}{i}", f"{c}{i + 1}")]
        return make_net(places, transitions, arcs, {"s": 1}, [{"P": 1}])

    def test_limit_error_does_not_depend_on_the_log_order(self, monkeypatch):
        # With a limit of 3 the steps of ("a", "q") and ("c", "r") both fail,
        # with unions of 4 and 5 markings.  The error carries the limit + 1
        # whichever of the two comes first in the log.
        net = self._two_failures_net()
        lstar = VariantLog((("c", "p"), ("a", "q"), ("c", "r")))
        monkeypatch.setattr(conformance, "_CLOSURE_LIMIT", 3)
        got = _outcome(etc_precision, net, lstar)
        assert got == _outcome(etc_precision_reference, net, lstar, closure_limit=3)
        assert got == ("budget", "escaping-edges replay exceeded marking limit", 4)
        sorted_log = VariantLog(tuple(sorted(lstar)))
        assert _outcome(etc_precision, net, sorted_log) == got
        assert token_replay_fitness(net, lstar) == _reference_fitness(net, lstar)

    @given(_reordered_logs(), st.integers(1, 8))
    @example(case=(_two_failures_net(), [VariantLog((("c", "p"), ("a", "q"), ("c", "r"))),
                                         VariantLog((("a", "q"), ("c", "p"), ("c", "r")))]),
             limit=3)
    @settings(max_examples=60, deadline=None)
    def test_no_log_order_changes_the_precision_outcome(self, case, limit):
        net, orders = case
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(conformance, "_CLOSURE_LIMIT", limit)
            got = {_outcome(etc_precision, net, lstar) for lstar in orders}
        assert got == {_outcome(etc_precision_reference, net, orders[0], closure_limit=limit)}


class TestSharedWalk:
    """Within one model_generalization call both scorers read one walk over
    the log's prefixes; a scorer called alone takes its own."""

    @given(st.one_of(_one_token_cases(), _baseline_cases(), _system_cases(),
                     _hand_made_cases(), _and_block_cases()), st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_scores_equal_each_scorer_alone(self, case, replay_first):
        net, lstar = case
        log = VariantLog(tuple(sorted(set(lstar))))
        order = (token_replay_fitness, etc_precision)
        if not replay_first:
            order = order[::-1]
        want = _outcome(lambda: tuple(score(_fresh(net), log) for score in order))

        def shared(net, variants):
            return astuple(model_generalization(net, variants, *order).scores)

        assert _outcome(shared, net, lstar) == want
        # The same net after a different log: no walk outlives its call.
        other = _fresh(net)
        _outcome(shared, other, [v[::-1] + ("z",) for v in lstar])
        assert _outcome(shared, other, lstar) == want

    def test_one_walk_per_call(self, monkeypatch, xor_net_abc):
        walks = []
        walk = conformance._walk_log

        def counted(cn, lstar):
            walks.append(lstar)
            return walk(cn, lstar)

        monkeypatch.setattr(conformance, "_walk_log", counted)
        variants = {("a", "b"), ("a", "d")}
        model_generalization(xor_net_abc, variants)
        assert len(walks) == 1

        # Scorers wrapped as a tracer wraps them pass the net and log through.
        def wrapped(score):
            @functools.wraps(score)
            def traced(net, lstar):
                return score(net, lstar)
            return traced

        model_generalization(xor_net_abc, variants, wrapped(token_replay_fitness),
                             wrapped(etc_precision))
        assert len(walks) == 2
        lstar = VariantLog(tuple(sorted(variants)))
        token_replay_fitness(xor_net_abc, lstar)
        etc_precision(xor_net_abc, lstar)
        assert len(walks) == 4
        assert walks[2:] == [lstar, lstar]


class TestBudgetEdges:
    """Each limit raises with the partial count the dense references report."""

    @pytest.mark.parametrize("limit", [1, 2, 5, 20, 50])
    def test_replay_pop_limit(self, monkeypatch, limit):
        net = build_system(SystemSpec(seed=1, depth=2, alphabet_budget=24,
                                      weights=SILENT_WEIGHTS, silent_skip=True,
                                      duplicate_label=True))
        variant = tuple(sorted(net.labels(), reverse=True)) * 3 + ("z",)
        monkeypatch.setattr(conformance, "_REPLAY_POP_LIMIT", limit)
        with pytest.raises(BudgetExceededError) as got:
            _replay_variant(net.compiled, variant, {})
        with pytest.raises(BudgetExceededError) as want:
            replay_counts_reference(net, variant, pop_limit=limit)
        assert got.value.partial_count == want.value.partial_count
        assert str(got.value) == str(want.value)

    @staticmethod
    def _shuffle_net():
        """Three tokens that silent moves walk along s0 -> s3: 20 markings."""
        places = ["s0", "s1", "s2", "s3"]
        transitions = [(f"tau{i}", None) for i in range(3)] + [("t_a", "a")]
        arcs = [(f"s{i}", f"tau{i}") for i in range(3)] + [(f"tau{i}", f"s{i + 1}") for i in range(3)]
        arcs += [("s3", "t_a"), ("t_a", "s3")]
        return make_net(places, transitions, arcs, {"s0": 3}, [{"s3": 3}])

    @pytest.mark.parametrize("limit", [1, 5, 19])
    def test_closure_limit(self, monkeypatch, limit):
        net = self._shuffle_net()
        lstar = VariantLog((("a",),))
        monkeypatch.setattr(conformance, "_CLOSURE_LIMIT", limit)
        got = _outcome(etc_precision, net, lstar)
        assert got == _outcome(etc_precision_reference, net, lstar, closure_limit=limit)
        assert got[2] == limit + 1

    @staticmethod
    def _union_net():
        """Two "a" transitions lead to two markings whose silent closures are
        disjoint and of size 3 each."""
        places = ["p0", "x1", "x2", "x3", "y1", "y2", "y3"]
        transitions = [("t_ax", "a"), ("t_ay", "a"), ("t_b", "b")] + [
            (f"tau_{c}{i}", None) for c in "xy" for i in (1, 2)
        ]
        arcs = [("p0", "t_ax"), ("t_ax", "x1"), ("p0", "t_ay"), ("t_ay", "y1"),
                ("x3", "t_b"), ("t_b", "y3")]
        for c in "xy":
            for i in (1, 2):
                arcs += [(f"{c}{i}", f"tau_{c}{i}"), (f"tau_{c}{i}", f"{c}{i + 1}")]
        return make_net(places, transitions, arcs, {"p0": 1}, [{"y3": 1}])

    @pytest.mark.parametrize("limit, raises", [(2, 3), (3, 4), (5, 6), (6, None)])
    def test_etc_union_limit(self, monkeypatch, limit, raises):
        # The union of the two closures holds 6 markings, so every limit
        # below 6 raises, with the limit + 1.
        net = self._union_net()
        lstar = VariantLog((("a", "b"), ("a",)))
        monkeypatch.setattr(conformance, "_CLOSURE_LIMIT", limit)
        got = _outcome(etc_precision, net, lstar)
        assert got == _outcome(etc_precision_reference, net, lstar, closure_limit=limit)
        if raises is None:
            assert isinstance(got, float)
        else:
            assert got[2] == raises


    @pytest.mark.parametrize("net_of, limit", [("_shuffle_net", 1), ("_shuffle_net", 5),
                                               ("_shuffle_net", 19), ("_union_net", 2),
                                               ("_union_net", 3), ("_union_net", 5)])
    def test_etc_limit_after_a_shared_walk(self, monkeypatch, net_of, limit):
        # model_generalization replays first, so precision reads a walk that
        # replay took; it raises what it raises alone.  Replay falls back to
        # the A* for the variants past the limit instead of raising.
        net = getattr(self, net_of)()
        lstar = VariantLog((("a",), ("a", "b")) if net_of == "_union_net" else (("a",),))
        monkeypatch.setattr(conformance, "_CLOSURE_LIMIT", limit)
        got = _outcome(model_generalization, net, lstar)
        assert got == _outcome(etc_precision_reference, net, lstar, closure_limit=limit)
        assert got[0] == "budget"
        calls = _counting_replays(monkeypatch)
        assert token_replay_fitness(net, lstar) == _reference_fitness(net, lstar)
        assert calls == list(lstar)

    def test_replay_budget_error_leaves_the_successor_table_as_it_found_it(self, monkeypatch):
        net = build_system(SystemSpec(seed=1, depth=2, alphabet_budget=24,
                                      weights=SILENT_WEIGHTS, silent_skip=True,
                                      duplicate_label=True))
        variant = tuple(sorted(net.labels(), reverse=True)) * 3 + ("z",)
        monkeypatch.setattr(conformance, "_REPLAY_POP_LIMIT", 50)
        with pytest.raises(BudgetExceededError):
            token_replay_fitness(net, VariantLog((variant,)))
        assert net.compiled._successors == {}

    def test_etc_budget_error_leaves_the_successor_table_as_it_found_it(self, monkeypatch):
        spec = SystemSpec(seed=3, depth=3, silent_skip=True, weights=SILENT_WEIGHTS)
        lstar = VariantLog(tuple(sorted(playout_enumerate(build_system(spec), max_len=None))))
        net = build_system(spec)
        monkeypatch.setattr(conformance, "_CLOSURE_LIMIT", 3)
        with pytest.raises(BudgetExceededError):
            etc_precision(net, lstar)
        assert net.compiled._successors == {}


@pytest.mark.parametrize("score, name", [
    (token_replay_fitness, "token_replay_fitness"),
    (etc_precision, "etc_precision"),
], ids=["fitness", "precision"])
def test_empty_log_is_a_domain_error(score, name):
    with pytest.raises(InvalidInputError) as info:
        score(flower_model(["a"]), VariantLog(()))
    assert str(info.value) == f"{name} requires a non-empty variant log"
