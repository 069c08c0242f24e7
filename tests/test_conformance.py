from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genmine import (
    InvalidInputError,
    UniqueVariantLog,
    VariantLog,
    dfg_discover,
    etc_precision,
    flower_model,
    generalization_score,
    model_generalization,
    system_fitness,
    system_precision,
    token_replay_fitness,
    trace_model,
)


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
    def test_equal_sets(self):
        vs = {("a",), ("b",)}
        assert system_fitness(vs, vs) == 1.0
        assert system_precision(vs, vs) == 1.0

    def test_disjoint_sets(self):
        assert system_fitness({("a",)}, {("b",)}) == 0.0
        assert system_precision({("a",)}, {("b",)}) == 0.0

    def test_published_ratios(self):
        v_s = {(f"v{i}",) for i in range(178)}
        realistic = set(list(sorted(v_s))[:120])
        unrealistic = {(f"u{i}",) for i in range(56)}
        v_pn = realistic | unrealistic
        assert len(v_pn) == 176
        assert system_fitness(v_pn, v_s) == pytest.approx(0.6742, abs=5e-4)
        assert system_precision(v_pn, v_s) == pytest.approx(0.6818, abs=5e-4)

    def test_subset_is_fully_precise(self):
        assert system_precision({("a",)}, {("a",), ("b",)}) == 1.0

    def test_empty_system_rejected(self):
        with pytest.raises(InvalidInputError):
            system_fitness({("a",)}, set())

    def test_empty_playout_warns(self):
        with pytest.warns(UserWarning):
            assert system_precision(set(), {("a",)}) == 0.0


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
        assert result.scores.fitness_method == "<lambda>"

    @pytest.mark.parametrize("variants", [set(), {("a",), ()}])
    def test_empty_set_or_variant_rejected(self, sequence_net_ab, variants):
        with pytest.raises(InvalidInputError):
            model_generalization(sequence_net_ab, variants)
