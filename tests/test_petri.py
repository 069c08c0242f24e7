from __future__ import annotations

import dataclasses
import gc
import json
import re
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genmine import (
    BudgetExceededError,
    InvalidInputError,
    SystemSpec,
    UniqueVariantLog,
    VariantLog,
    build_system,
    dfg_discover,
    flower_model,
    load_net,
    make_net,
    net_from_dict,
    net_to_dict,
    playout_enumerate,
    trace_model,
)
from genmine.petri import CompiledNet, PetriNet, Transition

from .conftest import BAD_NAME_NETS
from .oracles import brute_force_playout, brute_force_playout_pairs


def enabled(net, marking):
    cn = CompiledNet(net)
    return {cn.transitions[i].tid for i, _ in cn.successors(cn.encode(marking))}


def fire(net, marking, tid):
    """The marking after ``tid`` fires, in the compiled token-tuple form."""
    cn = CompiledNet(net)
    ti = next(i for i, t in enumerate(cn.transitions) if t.tid == tid)
    return cn.fire(cn.encode(marking), ti)


def encode(net, marking):
    return CompiledNet(net).encode(marking)


class TestEnabledFire:
    def test_empty_preset_always_enabled(self):
        net = make_net(["p"], [("t", "a")], [("t", "p")], {"p": 1})
        assert enabled(net, {"p": 0}) == {"t"}

    def test_not_enabled_without_token(self, sequence_net_ab):
        assert "t_b" not in enabled(sequence_net_ab, {"p_src": 1})

    def test_and_join_needs_both_tokens(self):
        net = make_net(
            ["p1", "p2", "p3"],
            [("t_join", "j")],
            [("p1", "t_join"), ("p2", "t_join"), ("t_join", "p3")],
            {"p1": 1, "p2": 1},
        )
        assert enabled(net, {"p1": 1, "p2": 1}) == {"t_join"}
        assert enabled(net, {"p1": 1}) == set()

    def test_fire_moves_token(self, sequence_net_ab):
        after = fire(sequence_net_ab, {"p_src": 1}, "t_a")
        assert after == encode(sequence_net_ab, {"p1": 1})

    def test_fire_self_loop_conserves(self):
        net = make_net(["p1"], [("t", "a")], [("p1", "t"), ("t", "p1")], {"p1": 1})
        assert fire(net, {"p1": 1}, "t") == encode(net, {"p1": 1})

    def test_fire_and_split(self):
        net = make_net(
            ["p1", "p2", "p3"],
            [("t", "a")],
            [("p1", "t"), ("t", "p2"), ("t", "p3")],
            {"p1": 1},
        )
        assert fire(net, {"p1": 1}, "t") == encode(net, {"p2": 1, "p3": 1})

    def test_marking_is_sorted_token_tuple(self):
        net = make_net(["p0", "p1", "p2"], [("t", "a")], [("p0", "t"), ("t", "p2")], {"p0": 1})
        assert encode(net, {"p2": 1, "p0": 2}) == (0, 0, 2)
        assert fire(net, {"p0": 2, "p2": 1}, "t") == (0, 2, 2)

    def test_enabled_in_ascending_order(self):
        net = make_net(
            ["p1", "p2"],
            [("t0", "a"), ("t1", "b"), ("t2", "c"), ("t3", "d")],
            [("p2", "t0"), ("p1", "t1"), ("p2", "t1"), ("p1", "t3"), ("t0", "p1")],
            {"p1": 1},
        )
        cn = CompiledNet(net)
        assert [ti for ti, _ in cn.successors(cn.encode({"p1": 1, "p2": 1}))] == [0, 1, 2, 3]
        assert cn.successors(cn.encode({"p1": 2})) == ((2, (0, 0)), (3, (0,)))

    def test_compiled_once_per_net(self, sequence_net_ab):
        assert sequence_net_ab.compiled is sequence_net_ab.compiled


# Place p enables a and b; an empty-preset b and an empty-preset silent
# transition feed p and q.
EMPTY_PRESET_NET = make_net(
    ["p", "q"],
    [("t_a", "a"), ("t_b", "b"), ("t_new_b", "b"), ("t_tau", None)],
    [("p", "t_a"), ("t_a", "q"), ("p", "t_b"), ("t_b", "q"), ("t_new_b", "p"), ("t_tau", "q")],
    {"p": 1}, [{"q": 1}],
)


class TestCompiledIndexes:
    """The consumer and label indexes and the one-token property of ``CompiledNet``."""

    @pytest.mark.parametrize("net_case", [0, 1, 5, "empty_presets"])
    def test_label_indexes_list_transitions_in_index_order(self, net_case):
        if net_case == "empty_presets":
            net = EMPTY_PRESET_NET
        else:
            net = build_system(SystemSpec(seed=net_case, depth=2, duplicate_label=True,
                                          silent_skip=True))
        cn = CompiledNet(net)
        consumers = [() for _ in cn.place_index]
        unconditional, by_label = (), {}
        for i, label in enumerate(cn.labels):
            for p in cn.pre[i]:
                consumers[p] += (i,)
            if not cn.pre[i]:
                unconditional += (i,)
            if label is not None:
                by_label[label] = by_label.get(label, ()) + (i,)
        assert cn.consumers == tuple(consumers)
        assert cn.unconditional == unconditional
        assert list(cn.by_label.items()) == list(by_label.items())

    def test_empty_preset_transitions_are_unconditional(self):
        cn = CompiledNet(EMPTY_PRESET_NET)
        tid = {t.tid: i for i, t in enumerate(cn.transitions)}
        assert cn.unconditional == (tid["t_new_b"], tid["t_tau"])
        assert cn.consumers[cn.place_index["p"]] == (tid["t_a"], tid["t_b"])
        assert cn.by_label == {"a": (tid["t_a"],), "b": (tid["t_b"], tid["t_new_b"])}
        # every marking, the empty one too, enables the empty-preset transitions
        assert [ti for ti, _ in cn.successors(())] == [tid["t_new_b"], tid["t_tau"]]

    def test_baselines_are_one_token_nets(self):
        variants = (("a", "b"), ("a", "c", "a"))
        assert trace_model(UniqueVariantLog(variants)).compiled.token_goal == 1
        assert dfg_discover(VariantLog(variants)).compiled.token_goal == 1
        assert flower_model(["a", "b"]).compiled.token_goal == 1

    def test_one_token_net_without_finals_aims_at_no_tokens(self):
        net = make_net(["p", "q"], [("t", "a"), ("tau", None)],
                       [("p", "t"), ("t", "q"), ("q", "tau"), ("tau", "p")], {"p": 2})
        assert net.compiled.token_goal == 0

    @pytest.mark.parametrize("arcs, finals", [
        # an AND split
        ([("p", "t"), ("t", "q"), ("t", "r")], [{"q": 1, "r": 1}]),
        # an empty preset
        ([("t", "q")], [{"q": 1}]),
        # a silent transition with an empty postset
        ([("p", "t"), ("t", "q"), ("q", "tau")], [{"q": 1}]),
        # finals of different sizes
        ([("p", "t"), ("t", "q")], [{"q": 1}, {"q": 1, "r": 1}]),
    ])
    def test_other_nets_are_not_one_token_nets(self, arcs, finals):
        net = make_net(["p", "q", "r"], [("t", "a"), ("tau", None)], arcs, {"p": 1}, finals)
        assert net.compiled.token_goal is None

    def test_built_system_with_an_and_block_is_not_a_one_token_net(self):
        net = build_system(SystemSpec(seed=0, depth=1, weights={"and": 1.0}))
        assert net.compiled.token_goal is None


class TestPlayout:
    def test_each_marking_fires_once(self, monkeypatch):
        # The flower's one marking is expanded for every prefix, but its three
        # firings are worked out once and read from the successor table after.
        fired = []
        fire = CompiledNet.fire

        def counting_fire(self, marking, ti):
            fired.append(ti)
            return fire(self, marking, ti)

        monkeypatch.setattr(CompiledNet, "fire", counting_fire)
        assert len(playout_enumerate(flower_model(["a", "b", "c"]), max_len=4)) == 120
        assert fired == [0, 1, 2]

    def test_sequence(self, sequence_net_ab):
        assert playout_enumerate(sequence_net_ab, max_len=5) == {("a", "b")}

    def test_xor(self, xor_net_abc):
        assert playout_enumerate(xor_net_abc, max_len=5) == {("a", "b"), ("a", "c")}

    def test_silent_skip(self, silent_skip_net):
        assert playout_enumerate(silent_skip_net, max_len=5) == {("a",), ("a", "b")}

    def test_budget_error_reports_partial(self):
        net = flower_model(["a", "b"])
        with pytest.raises(BudgetExceededError) as err:
            playout_enumerate(net, max_len=20, budget=50)
        assert err.value.partial_count >= 0

    @pytest.mark.parametrize("bounds, message", [
        ({"max_len": 2.5}, "max_len must be an integer, got 2.5"),
        ({"max_len": True}, "max_len must be an integer, got True"),
        ({"max_len": 0}, "max_len must be >= 1"),
        ({"token_cap": 1.5}, "token_cap must be an integer, got 1.5"),
        ({"token_cap": True}, "token_cap must be an integer, got True"),
        ({"token_cap": 0}, "token_cap must be >= 1"),
        ({"budget": 10.0}, "budget must be an integer, got 10.0"),
        ({"budget": 0}, "budget must be >= 1"),
    ])
    def test_bounds_must_be_integer_counts(self, bounds, message):
        # Two tokens meet in the and-split, so the token cap is compared.
        net = build_system(SystemSpec(seed=4, depth=2, weights={"and": 1}))
        with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
            playout_enumerate(net, **{"max_len": None, **bounds})

    def test_budget_error_leaves_the_successor_table_as_it_found_it(self):
        # An empty-preset generator and no token cap: every expansion reaches
        # a new marking, so each one adds a successor row.
        net = make_net({"p0", "p1"}, [("t_gen", "a"), ("t_b", "b")],
                       [("t_gen", "p0"), ("p0", "t_b"), ("t_b", "p1")], {"p1": 1}, [])
        cn = net.compiled
        playout_enumerate(net, max_len=2, token_cap=None)
        kept = dict(cn._successors)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            try:
                playout_enumerate(net, max_len=None, token_cap=None, budget=1_000)
            except BudgetExceededError:
                pass
            else:
                pytest.fail("the uncapped playout must exceed its budget")
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert cn._successors == kept
        assert retained < 2**20  # 1,000 rows kept about 8 MiB

    @pytest.mark.parametrize(
        "kind, budget, partial",
        [("flower", 1, 0), ("flower", 7, 6), ("flower", 50, 49), ("flower", 200, 199),
         ("system", 1, 0), ("system", 7, 1), ("system", 50, 25), ("system", 200, 108)],
    )
    def test_budget_partial_count_pinned(self, kind, budget, partial):
        # Pins how many variants are recorded before the budget runs out;
        # which ones follows the prefix search's order.  The flower's one
        # marking makes each prefix cost one pair and every prefix but the
        # empty one record, so its counts are budget - 1 in any order.
        if kind == "flower":
            net, max_len = flower_model(["a", "b"]), 20
        else:
            net = build_system(SystemSpec(
                seed=1, depth=2, alphabet_budget=24, silent_skip=True, duplicate_label=True,
                weights={"seq": 1, "xor": 1, "and": 1, "loop": 0.3},
            ))
            max_len = None
        with pytest.raises(BudgetExceededError) as err:
            playout_enumerate(net, max_len=max_len, budget=budget)
        assert err.value.partial_count == partial

    @pytest.mark.parametrize("finals", [True, False], ids=["finals", "permissive"])
    @pytest.mark.parametrize("max_len", [None, 4])
    @pytest.mark.parametrize("cap", [2, 3, None])
    def test_budget_boundary_is_the_oracle_pair_count(self, finals, max_len, cap):
        # The budget counts (marking, prefix) pairs: with N the pairs the
        # oracle visits, budget N plays out the oracle's variants and N - 1
        # raises.  The nets hold silent skips, duplicate labels, AND blocks
        # and loops.
        for seed in (0, 3, 11, 13, 22):
            net = build_system(SystemSpec(
                seed=seed, depth=2, alphabet_budget=10, silent_skip=True, duplicate_label=True,
                weights={"seq": 1, "xor": 1, "and": 1, "loop": 0.5},
            ))
            if not finals:
                net = dataclasses.replace(net, final_markings=())
            variants, pairs = brute_force_playout_pairs(net, max_len, cap)
            assert playout_enumerate(net, max_len, cap, budget=pairs) == variants
            with pytest.raises(BudgetExceededError):
                playout_enumerate(net, max_len, cap, budget=pairs - 1)

    @pytest.mark.parametrize("cap, count", [(1, 0), (2, 0), (3, 13), (4, 14)])
    def test_initial_marking_over_token_cap(self, cap, count):
        # Four tokens start on p: successors above the cap are pruned, so
        # nothing plays out until the cap admits three tokens on one place.
        perm = make_net(["p", "q"], [("t_a", "a"), ("t_b", "b")],
                        [("p", "t_a"), ("t_a", "q"), ("q", "t_b")], {"p": 4})
        got = playout_enumerate(perm, max_len=8, token_cap=cap)
        assert len(got) == count
        assert got == brute_force_playout(perm, 8, cap)
        drain = make_net(["p", "q"], [("t_a", "a"), ("t_x", None)],
                         [("p", "t_a"), ("t_a", "q"), ("p", "t_x")], {"p": 4}, [{"q": 2}])
        got = playout_enumerate(drain, max_len=8, token_cap=cap)
        assert got == ({("a", "a")} if cap >= 3 else set())
        assert got == brute_force_playout(drain, 8, cap)

    def test_deterministic(self, xor_net_abc):
        a = playout_enumerate(xor_net_abc, max_len=4)
        b = playout_enumerate(xor_net_abc, max_len=4)
        assert a == b

    def test_monotone_in_max_len(self):
        net = flower_model(["a", "b"])
        small = playout_enumerate(net, max_len=2)
        large = playout_enumerate(net, max_len=3)
        assert small <= large

    def test_monotone_in_token_cap(self):
        # two tokens allow deeper interleavings than one
        net = make_net(
            ["p0", "p1", "p2"],
            [("t_a", "a"), ("t_b", "b")],
            [("p0", "t_a"), ("t_a", "p1"), ("t_a", "p2"), ("p1", "t_b"), ("p2", "t_b")],
            {"p0": 2},
            [],
        )
        small = playout_enumerate(net, max_len=6, token_cap=1)
        large = playout_enumerate(net, max_len=6, token_cap=2)
        assert small <= large


class TestTraceModel:
    def test_single_variant(self):
        lplus = UniqueVariantLog((("a", "b"),))
        net = trace_model(lplus)
        assert playout_enumerate(net, max_len=2, token_cap=None) == {("a", "b")}

    def test_two_singletons(self):
        lplus = UniqueVariantLog((("a",), ("b",)))
        assert playout_enumerate(trace_model(lplus), max_len=1, token_cap=None) == {
            ("a",),
            ("b",),
        }

    def test_oracle_equivalence_on_many_variants(self):
        variants = tuple(
            (f"x{i}",) * (i % 3 + 1) for i in range(124)
        )
        lplus = UniqueVariantLog(variants)
        net = trace_model(lplus)
        maxlen = max(len(v) for v in variants)
        assert playout_enumerate(net, max_len=maxlen, token_cap=None) == set(variants)

    @given(
        st.sets(
            st.lists(st.sampled_from("abc"), min_size=1, max_size=4).map(tuple),
            min_size=1,
            max_size=8,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_playout_recovers_input(self, variants):
        lplus = UniqueVariantLog(tuple(sorted(variants)))
        net = trace_model(lplus)
        maxlen = max(len(v) for v in variants)
        assert playout_enumerate(net, max_len=maxlen, token_cap=None) == variants


class TestFlowerModel:
    def test_single_label(self):
        assert playout_enumerate(flower_model(["a"]), max_len=2) == {("a",), ("a", "a")}

    def test_two_labels_six_variants(self):
        assert len(playout_enumerate(flower_model(["a", "b"]), max_len=2)) == 6


class TestDfgDiscover:
    def test_single_variant_replayable(self):
        lstar = VariantLog((("a", "b"),))
        net = dfg_discover(lstar)
        assert ("a", "b") in playout_enumerate(net, max_len=2)

    def test_both_variants_replayable(self):
        lstar = VariantLog((("a", "b"), ("a", "c")))
        out = playout_enumerate(dfg_discover(lstar), max_len=2)
        assert {("a", "b"), ("a", "c")} <= out

    def test_generalizes_beyond_input(self):
        lstar = VariantLog((("a", "b"), ("b", "a")))
        out = playout_enumerate(dfg_discover(lstar), max_len=3)
        assert {("a", "b"), ("b", "a")} < out

    def test_empty_variant_rejected(self):
        with pytest.raises(InvalidInputError):
            dfg_discover(VariantLog((("a",), ())))


class TestNetJson:
    def test_round_trip(self, silent_skip_net):
        data = net_to_dict(silent_skip_net)
        back = net_from_dict(data)
        assert back == silent_skip_net

    def test_malformed_rejected(self):
        with pytest.raises(InvalidInputError):
            net_from_dict({"places": ["p"]})

    @pytest.mark.parametrize("key, value, place", [
        ("initial_marking", {"p0": 1.7}, "p0"),
        ("initial_marking", {"p0": True}, "p0"),
        ("initial_marking", {"p0": -1}, "p0"),
        ("final_markings", [{"p2": -1}], "p2"),
    ], ids=["fraction", "bool", "negative_initial", "negative_final"])
    def test_bad_token_count_rejected(self, silent_skip_net, key, value, place):
        data = net_to_dict(silent_skip_net)
        data[key] = value
        with pytest.raises(InvalidInputError, match=f"place '{place}' holds"):
            net_from_dict(data)


class TestValidation:
    def test_arc_to_unknown_node(self):
        with pytest.raises(InvalidInputError):
            make_net(["p"], [("t", "a")], [("p", "nope")], {"p": 1})

    def test_place_place_arc_rejected(self):
        with pytest.raises(InvalidInputError):
            make_net(["p", "q"], [("t", "a")], [("p", "q")], {"p": 1})

    def test_empty_initial_rejected(self):
        with pytest.raises(InvalidInputError):
            make_net(["p"], [("t", "a")], [("p", "t")], {"p": 0})

    @pytest.mark.parametrize("initial, final, held", [
        ({"p0": 1, "p2": 1.5}, {"p2": 1}, "place 'p2' holds 1.5 tokens"),
        ({"p0": True}, {"p2": 1}, "place 'p0' holds True tokens"),
        ({"p0": -1}, {"p2": 1}, "place 'p0' holds -1 tokens"),
        ({"p0": 1}, {"p2": -1}, "place 'p2' holds -1 tokens"),
    ], ids=["fraction", "bool", "negative_initial", "negative_final"])
    def test_bad_token_count_rejected(self, initial, final, held):
        with pytest.raises(InvalidInputError,
                           match=f"^{held}; expected a non-negative integer$"):
            make_net(["p0", "p2"], [("t", "a")], [("p0", "t"), ("t", "p2")], initial, [final])

    @pytest.mark.parametrize("initial, final, held", [
        ((("p0", 1), ("p2", 1.5)), (("p2", 1),), "place 'p2' holds 1.5 tokens"),
        ((("p0", True),), (("p2", 1),), "place 'p0' holds True tokens"),
        ((("p0", -1),), (("p2", 1),), "place 'p0' holds -1 tokens"),
        ((("p0", 1),), (("p2", 1.0),), "place 'p2' holds 1.0 tokens"),
        ((("p0", 1),), (("p2", False),), "place 'p2' holds False tokens"),
    ], ids=["fraction", "bool", "negative_initial", "float_final", "bool_final"])
    def test_bad_token_count_rejected_on_direct_construction(self, initial, final, held):
        with pytest.raises(InvalidInputError,
                           match=f"^{held}; expected a non-negative integer$"):
            PetriNet(places=frozenset({"p0", "p2"}), transitions=(Transition("t", "a"),),
                     arcs=frozenset({("p0", "t"), ("t", "p2")}),
                     initial_marking=initial, final_markings=(final,))


class TestOracleAgreement:
    def test_sequence(self, sequence_net_ab):
        assert playout_enumerate(sequence_net_ab, max_len=4) == brute_force_playout(
            sequence_net_ab, 4, 3
        )

    def test_flower(self):
        net = flower_model(["a", "b"])
        assert playout_enumerate(net, max_len=3) == brute_force_playout(net, 3, 3)

    def test_silent(self, silent_skip_net):
        assert playout_enumerate(silent_skip_net, max_len=3) == brute_force_playout(
            silent_skip_net, 3, 3
        )


class TestDomainErrors:
    @pytest.mark.parametrize("call, message", [
        (lambda: make_net(["p"], [], [], {"p": 1}), "net needs at least one transition"),
        (lambda: make_net(["p"], [("t", "a"), ("t", "b")], [], {"p": 1}),
         "transition ids must be unique"),
        (lambda: make_net(["p", "t"], [("t", "a")], [], {"p": 1}),
         "place and transition ids must not collide"),
        (lambda: make_net(["p"], [("t", "a")], [("p", "t")], {"q": 1}),
         "bad initial marking entry ('q', 1)"),
        (lambda: make_net(["p"], [("t", "a")], [("p", "t")], {"p": 1}, [{"q": 1}]),
         "bad final marking entry ('q', 1)"),
        (lambda: make_net(["p"], [("t", "")], [("p", "t")], {"p": 1}),
         "transition 't' has an empty label"),
        (lambda: make_net(["p"], [("t", "a")], [("p", "t")], {"p": 1}).compiled.encode({"z": 1}),
         "marking references unknown place 'z'"),
        (lambda: trace_model(UniqueVariantLog(())), "trace_model requires a non-empty variant log"),
        (lambda: flower_model([]), "flower_model requires a non-empty alphabet"),
        (lambda: dfg_discover(VariantLog(())), "dfg_discover requires a non-empty variant log"),
    ], ids=["no_transition", "repeated_transition_id", "id_collision", "initial_unknown_place",
            "final_unknown_place", "empty_label", "encode_unknown_place", "empty_trace_model",
            "empty_flower_alphabet", "empty_dfg_log"])
    def test_bad_value(self, call, message):
        with pytest.raises(InvalidInputError) as info:
            call()
        assert str(info.value) == message

    @pytest.mark.parametrize("case", list(BAD_NAME_NETS))
    def test_name_that_is_not_a_string(self, tmp_path, case):
        data, message = BAD_NAME_NETS[case]
        path = tmp_path / "net.json"
        path.write_text(json.dumps(data))
        with pytest.raises(InvalidInputError) as info:
            load_net(path)
        assert str(info.value) == f"malformed net JSON: {message}"
