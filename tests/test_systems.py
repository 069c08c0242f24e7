from __future__ import annotations

import math

import pytest

from genmine import (
    BuildError,
    ComplexityProfile,
    InvalidInputError,
    SystemSpec,
    build_system,
    complexity_profile,
    playout_enumerate,
)

from .oracles import brute_force_playout


def spec_with(**kwargs) -> SystemSpec:
    defaults = dict(seed=0, depth=2, alphabet_budget=24)
    defaults.update(kwargs)
    return SystemSpec(**defaults)


class TestBuildSystem:
    def test_depth_zero_single_transition(self):
        net = build_system(spec_with(depth=0))
        assert playout_enumerate(net, max_len=None) == {("a01",)}

    def test_pure_sequence_single_variant(self):
        spec = spec_with(
            seed=1, depth=1, weights={"seq": 1.0}, fanout_min=3, fanout_max=3
        )
        net = build_system(spec)
        out = playout_enumerate(net, max_len=None)
        assert len(out) == 1
        assert len(next(iter(out))) == 3

    def test_xor_fanout_two_depth_two(self):
        spec = spec_with(seed=2, depth=2, weights={"xor": 1.0}, fanout_min=2, fanout_max=2)
        out = playout_enumerate(build_system(spec), max_len=None)
        assert len(out) == 4
        assert all(len(v) == 1 for v in out)

    def test_determinism(self):
        a = build_system(spec_with(seed=33, depth=3))
        b = build_system(spec_with(seed=33, depth=3))
        assert a == b

    def test_alphabet_budget_enforced(self):
        with pytest.raises(BuildError):
            build_system(
                spec_with(seed=3, depth=3, alphabet_budget=2, weights={"seq": 1.0},
                          fanout_min=3, fanout_max=3)
            )

    def test_always_reaches_final(self):
        for seed in range(25):
            net = build_system(
                spec_with(seed=seed, depth=3, fanout_min=2, fanout_max=2)
            )
            assert playout_enumerate(net, max_len=8, budget=500_000)

    def test_loop_yields_repetitions(self):
        spec = spec_with(seed=5, depth=1, weights={"loop": 1.0}, loop_unroll=2)
        out = playout_enumerate(build_system(spec), max_len=None)
        lengths = sorted(len(v) for v in out)
        assert lengths == [1, 3, 5]  # body, body+redo+body, twice more

    def test_silent_skip_flag_adds_optionality(self):
        plain = playout_enumerate(build_system(spec_with(seed=7, depth=1,
                                                         weights={"seq": 1.0})), max_len=None)
        skippy = playout_enumerate(
            build_system(spec_with(seed=7, depth=1, weights={"seq": 1.0}, silent_skip=True)),
            max_len=None,
        )
        assert plain < skippy

    def test_duplicate_label_flag(self):
        net = build_system(spec_with(seed=8, depth=1, weights={"seq": 1.0},
                                     duplicate_label=True))
        labels = [t.label for t in net.transitions if t.label is not None]
        assert len(labels) != len(set(labels))


class TestSpecValidation:
    def test_depth_bound(self):
        with pytest.raises(InvalidInputError):
            spec_with(depth=7)

    def test_weights_must_be_known(self):
        with pytest.raises(InvalidInputError):
            spec_with(weights={"nope": 1.0})

    def test_weights_need_positive_sum(self):
        with pytest.raises(InvalidInputError):
            spec_with(weights={"seq": 0.0})

    @pytest.mark.parametrize("weights", [
        {"seq": math.nan},
        {"seq": math.inf, "xor": 1.0},
        {"seq": 1e308, "xor": 1e308},
    ])
    def test_weights_need_finite_sum(self, weights):
        with pytest.raises(InvalidInputError, match="positive finite sum"):
            spec_with(weights=weights)

    @pytest.mark.parametrize("seed, message", [
        (-1, "seed must be >= 0"),
        (True, "seed must be an integer, got True"),
        (1.5, "seed must be an integer, got 1.5"),
    ])
    def test_seed_must_be_a_non_negative_int(self, seed, message):
        with pytest.raises(InvalidInputError, match=f"^{message}$"):
            spec_with(seed=seed)

    def test_loop_unroll_bound(self):
        with pytest.raises(InvalidInputError):
            spec_with(loop_unroll=4)

    @pytest.mark.parametrize("value", [2.5, True])
    @pytest.mark.parametrize("field", ["depth", "alphabet_budget", "loop_unroll", "fanout_min",
                                       "fanout_max"])
    def test_sizes_must_be_integers(self, field, value):
        with pytest.raises(InvalidInputError, match=f"^{field} must be an integer, got {value}$"):
            spec_with(**{field: value})

    @pytest.mark.parametrize("field, value, message", [
        ("depth", -1, "depth must be >= 0"),
        ("alphabet_budget", 0, "alphabet_budget must be >= 1"),
        ("loop_unroll", 0, "loop_unroll must be >= 1"),
        ("fanout_min", 1, "fanout_min must be >= 2"),
        ("fanout_max", 1, "fanout_max must be >= 2"),
    ])
    def test_sizes_have_a_floor(self, field, value, message):
        with pytest.raises(InvalidInputError, match=f"^{message}$"):
            spec_with(**{field: value})


class TestComplexityProfile:
    def test_single_transition(self):
        profile = complexity_profile(build_system(spec_with(depth=0)))
        assert (profile.alphabet_size, profile.max_variant_len, profile.variant_count) == (1, 1, 1)

    def test_xor_then_sequence(self):
        # XOR of 3 singleton branches: three variants of length 1
        spec = spec_with(seed=4, depth=1, weights={"xor": 1.0}, fanout_min=3, fanout_max=3)
        profile = complexity_profile(build_system(spec))
        assert profile.variant_count == 3

    def test_desk_scale_target_shape_reachable(self):
        # a spec can land in the published complexity region (|A|~11, mu~5)
        spec = SystemSpec(seed=104, depth=3, alphabet_budget=11,
                          weights={"seq": 1.0, "xor": 1.2, "and": 0.3})
        profile = complexity_profile(build_system(spec))
        assert profile.alphabet_size <= 11
        assert profile.variant_count >= 1

    def test_budget_error_propagates(self):
        # The profile counts under no playout budget, so a DEFAULT_BUDGET
        # patch no longer bounds it; a flower's unbounded playout is infinite
        # (its one state loops on every label and accepts), a domain error.
        from genmine import flower_model

        with pytest.raises(InvalidInputError, match="^the playout is infinite: "):
            complexity_profile(flower_model(list("abcdef")))

    def test_state_limit_error_propagates(self, monkeypatch):
        # An automaton that would pass the state limit raises the budget
        # error and keeps no state.
        from genmine import BudgetExceededError, petri

        net = build_system(SystemSpec(seed=9))
        monkeypatch.setattr(petri, "STATE_LIMIT", 1_000)
        with pytest.raises(BudgetExceededError,
                           match="^playout automaton exceeded 1000 markings$"):
            complexity_profile(net)
        assert net.compiled.playout(3).states == []

    def test_seed_9_is_counted_not_enumerated(self):
        # 32,691,859,200 variants: far past any playout budget, counted on
        # 9,720 automaton states.
        net = build_system(SystemSpec(seed=9))
        assert complexity_profile(net) == ComplexityProfile(
            alphabet_size=19, max_variant_len=17, variant_count=32_691_859_200)
        assert len(net.compiled.playout(3).states) == 9_720


class TestOracleEquivalence:
    def test_fifty_random_block_systems(self):
        mismatches = []
        for seed in range(50):
            spec = SystemSpec(
                seed=seed,
                depth=(seed % 3) + 1,
                alphabet_budget=30,
                weights={"seq": 1.0, "xor": 1.0, "and": 0.4, "loop": 0.25},
                fanout_min=2,
                fanout_max=2,
            )
            net = build_system(spec)
            mine = playout_enumerate(net, max_len=8, token_cap=3, budget=500_000)
            oracle = brute_force_playout(net, max_len=8, token_cap=3, budget=500_000)
            if mine != oracle:
                mismatches.append(seed)
        assert mismatches == []


class TestDomainErrors:
    def test_fanout_bounds_ordered(self):
        with pytest.raises(InvalidInputError) as info:
            spec_with(fanout_min=3, fanout_max=2)
        assert str(info.value) == "need 2 <= fanout_min <= fanout_max"

    def test_too_many_final_markings(self):
        spec = spec_with(seed=0, depth=4, alphabet_budget=60, loop_unroll=3,
                         weights={"seq": 1.0, "loop": 1.0})
        with pytest.raises(BuildError) as info:
            build_system(spec)
        assert str(info.value) == (
            "5 loops would need 1024 final markings; reduce loop weight or unroll bound"
        )
