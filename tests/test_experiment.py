from __future__ import annotations

import json
import math

import numpy as np
import pytest

from genmine import (
    BaselineModel,
    BudgetExceededError,
    ExperimentConfig,
    GenmineError,
    InvalidInputError,
    NetModel,
    SamplerModel,
    SystemSpec,
    SystemTruth,
    TrainConfig,
    UniqueVariantLog,
    build_system,
    conformance,
    experiment,
    fit_mle,
    flower_model,
    petri,
    run_experiment,
)
from genmine.genmodel import TrainResult, init_scorer
from genmine.sampling import SampleResult

FAST_TRAIN = TrainConfig(rounds=1, round_samples=150, select_sample_size=300)


SMALL_SEEDS = (78, 14, 84)  # validated desk scale: flower playout stays tiny


def small_systems(n=2):
    out = []
    for i, seed in enumerate(SMALL_SEEDS[:n]):
        spec = SystemSpec(
            seed=seed, depth=2, alphabet_budget=8,
            weights={"seq": 1.0, "xor": 1.5, "loop": 0.5},
            fanout_min=2, fanout_max=3,
        )
        out.append((f"sys{i}", build_system(spec)))
    return out


def standard_models():
    return [
        BaselineModel(name="trace", kind="trace"),
        BaselineModel(name="flower", kind="flower"),
        BaselineModel(name="dfg", kind="dfg"),
        SamplerModel(name="naive", mode="naive", train_config=FAST_TRAIN, k=400),
    ]


class TestRunExperiment:
    def test_structure_and_baseline_behavior(self):
        report = run_experiment(small_systems(1), standard_models(),
                                ExperimentConfig(seed=3))
        assert report["schema_version"] == 1
        sysblock = report["systems"][0]
        by_name = {m["name"]: m for m in sysblock["models"]}
        # trace model: pure overfit
        assert by_name["trace"]["rates"]["tp"] == 1.0
        assert by_name["trace"]["rates"]["tp_u"] == 0.0
        # flower: covers everything it can express, mostly garbage
        assert by_name["flower"]["rates"]["tp_o"] == 1.0
        assert by_name["flower"]["rates"]["tp_u"] == 1.0
        assert by_name["flower"]["rates"]["tp"] < 0.1
        # net models carry generalization blocks, samplers carry metadata
        assert "generalization" in by_name["dfg"]
        assert "per_sampler" in by_name["dfg"]["generalization"]
        assert "sampler_meta" in by_name["naive"]
        assert by_name["naive"]["rates"]["tp_e"] is not None

    def test_deterministic_reports(self):
        systems, models = small_systems(1), standard_models()
        a = run_experiment(systems, models, ExperimentConfig(seed=5))
        b = run_experiment(systems, models, ExperimentConfig(seed=5))
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_jobs_do_not_change_results(self):
        systems = small_systems(2)
        models = standard_models() + [
            SamplerModel(name="mh", mode="mh", train_config=FAST_TRAIN, kappa=20, patience=5)
        ]
        seq = run_experiment(systems, models, ExperimentConfig(seed=6, jobs=1))
        par = run_experiment(systems, models, ExperimentConfig(seed=6, jobs=3))
        assert json.dumps(seq, sort_keys=True) == json.dumps(par, sort_keys=True)

    def test_paired_tests_emitted_per_net_sampler_pair(self):
        report = run_experiment(small_systems(3), standard_models(),
                                ExperimentConfig(seed=8))
        pairs = {(t["net"], t["sampler"]) for t in report["paired_tests"]}
        assert pairs == {("trace", "naive"), ("flower", "naive"), ("dfg", "naive")}
        for t in report["paired_tests"]:
            assert len(t["differences"]) == 3
            assert ("p_value" in t) or ("note" in t)

    def test_accepts_presplit_system_truth(self):
        from genmine import playout_enumerate, split_system

        _, net = small_systems(1)[0]
        v_s = playout_enumerate(net, max_len=None, token_cap=3)
        truth = split_system(v_s, 0.7, seed=4)
        report = run_experiment(
            [("presplit", truth)],
            [BaselineModel(name="trace", kind="trace")],
            ExperimentConfig(seed=2),
        )
        counts = report["systems"][0]["counts"]
        assert counts["n_observed"] == len(truth.lplus)
        assert counts["n_unobserved"] == len(truth.v_u)

    def test_flower_baseline_reads_only_observed_labels(self):
        # "c" occurs only in an unobserved variant, so no baseline may see it.
        truth = SystemTruth(
            v_s=frozenset({("a", "b"), ("b", "a"), ("a", "c")}),
            lplus=UniqueVariantLog((("a", "b"), ("b", "a"))),
            v_u=frozenset({("a", "c")}),
        )
        report = run_experiment([("sys", truth)], [BaselineModel(name="flower", kind="flower")])
        system = report["systems"][0]
        counts = system["models"][0]["counts"]
        assert counts["n_sampled"] == 6  # a, b and the four words of two of them
        assert counts["hits_unobserved"] == 0
        assert system["counts"]["alphabet_size"] == 3  # still the system's own

    @pytest.mark.parametrize("field, value, message", [
        ("token_cap", 0, "token_cap must be >= 1"),
        ("split_ratio", 1.5, r"split_ratio must be in \(0,1\), got 1.5"),
        ("split_ratio", 0.0, r"split_ratio must be in \(0,1\), got 0.0"),
    ])
    def test_bad_config_fails_before_training(self, monkeypatch, field, value, message):
        from genmine import genmodel, playout_enumerate, split_system

        def train_and_select(*args):
            raise AssertionError("train_and_select must not run")

        monkeypatch.setattr(genmodel, "train_and_select", train_and_select)
        _, net = small_systems(1)[0]
        truth = split_system(playout_enumerate(net, max_len=None, token_cap=3), 0.7, seed=4)
        models = [SamplerModel(name="naive", mode="naive", train_config=FAST_TRAIN),
                  BaselineModel(name="trace", kind="trace")]
        with pytest.raises(InvalidInputError, match=message):
            run_experiment([("presplit", truth)], models, ExperimentConfig(**{field: value}))

    @pytest.mark.parametrize("seed, message", [
        (-1, "seed must be >= 0"),
        (False, "seed must be an integer, got False"),
        (0.0, "seed must be an integer, got 0.0"),
    ])
    def test_seed_must_be_a_non_negative_int(self, seed, message):
        with pytest.raises(InvalidInputError, match=f"^{message}$"):
            ExperimentConfig(seed=seed)

    @pytest.mark.parametrize("value", [2.5, True])
    @pytest.mark.parametrize("field", ["token_cap", "jobs"])
    def test_counts_must_be_integers(self, field, value):
        with pytest.raises(InvalidInputError, match=f"^{field} must be an integer, got {value}$"):
            ExperimentConfig(**{field: value})

    @pytest.mark.parametrize("field, value, message", [
        ("jobs", "2", "jobs must be an integer, got '2'"),
        ("token_cap", None, "token_cap must be an integer, got None"),
    ])
    def test_non_numbers_are_domain_errors(self, field, value, message):
        with pytest.raises(InvalidInputError, match=f"^{message}$"):
            ExperimentConfig(**{field: value})

    def test_unknown_baseline_kind_rejected(self):
        with pytest.raises(InvalidInputError, match="^unknown baseline kind 'petri'$"):
            BaselineModel(name="petri", kind="petri")

    def test_unknown_sampler_mode_rejected(self):
        with pytest.raises(InvalidInputError,
                           match="^sampler mode must be naive or mh, got 'gibbs'$"):
            SamplerModel(name="gibbs", mode="gibbs")

    def test_external_net_model(self):
        systems = small_systems(1)
        alphabet = {a for v in systems[0][1].labels() for a in [v]}
        net = flower_model(sorted(alphabet))
        report = run_experiment(
            systems,
            [NetModel(name="external", net=net)],
            ExperimentConfig(seed=2),
        )
        assert report["systems"][0]["models"][0]["name"] == "external"

    def test_net_built_once_per_block(self, monkeypatch):
        # The net cell's one trace net serves its playout and both samplers'
        # generalization scores.
        built = []
        trace_model = petri.trace_model
        monkeypatch.setattr(petri, "trace_model", lambda lplus: built.append(1) or trace_model(lplus))
        models = [BaselineModel(name="trace", kind="trace")] + [
            SamplerModel(name=name, mode="naive", train_config=FAST_TRAIN, k=50)
            for name in ("naive1", "naive2")
        ]
        report = run_experiment(small_systems(1), models, ExperimentConfig(seed=4))
        per_sampler = report["systems"][0]["models"][0]["generalization"]["per_sampler"]
        assert sorted(per_sampler) == ["naive1", "naive2"]
        assert len(built) == 1

    def test_pool_is_no_larger_than_the_larger_phase(self, monkeypatch):
        # A process pool forks all its workers at the first submit, so a
        # large --jobs must not outnumber the cells; this pool forks none.
        sizes = []

        class InProcessPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return False

            map = staticmethod(map)

        monkeypatch.setattr(experiment, "ProcessPoolExecutor", InProcessPool)
        models = [BaselineModel(name="trace", kind="trace"), BaselineModel(name="dfg", kind="dfg"),
                  SamplerModel(name="naive", mode="naive", train_config=FAST_TRAIN, k=50)]
        report = run_experiment(small_systems(2), models, ExperimentConfig(seed=4, jobs=64))
        assert sizes == [4]  # 2 systems x 2 net models
        assert [len(s["models"]) for s in report["systems"]] == [3, 3]

    def test_scoring_error_names_the_net_cell(self, monkeypatch):
        monkeypatch.setattr(conformance, "_REPLAY_POP_LIMIT", 1)
        models = [BaselineModel(name="trace", kind="trace"),
                  SamplerModel(name="naive", mode="naive", train_config=FAST_TRAIN, k=50)]
        with pytest.raises(GenmineError, match="system 'sys0', model 'trace'") as info:
            run_experiment(small_systems(1), models, ExperimentConfig(seed=4, jobs=1))
        assert isinstance(info.value.__cause__, BudgetExceededError)

    def test_empty_estimate_is_noted(self, monkeypatch):
        empty = SampleResult(v_hat_s=frozenset(), v_hat_u=frozenset(), draw_count=0)
        monkeypatch.setattr(experiment, "estimate", lambda *args: empty)
        models = [BaselineModel(name="dfg", kind="dfg"),
                  SamplerModel(name="naive", mode="naive", train_config=FAST_TRAIN, k=50)]
        report = run_experiment(small_systems(1), models, ExperimentConfig(seed=4))
        generalization = report["systems"][0]["models"][0]["generalization"]
        assert generalization == {
            "per_sampler": {"naive": {"generalization": 0.0, "fitness": 0.0, "precision": 0.0,
                                      "note": "empty estimated variant set"}},
            "mean": 0.0,
        }

    def test_timing_opt_in(self):
        systems = small_systems(1)
        models = [BaselineModel(name="trace", kind="trace")]
        without = run_experiment(systems, models, ExperimentConfig(seed=1))
        with_t = run_experiment(systems, models,
                                ExperimentConfig(seed=1, include_timing=True))
        assert "elapsed_s" not in without["systems"][0]["models"][0]
        assert "elapsed_s" in with_t["systems"][0]["models"][0]

    def test_degenerate_paired_differences_are_flagged(self):
        from genmine.experiment import _paired_tests

        models = [BaselineModel(name="net", kind="trace"),
                  SamplerModel(name="samp", mode="naive", train_config=FAST_TRAIN)]
        s_by_model = {"net": [0.5, 0.5, 0.5], "samp": [0.5, 0.5, 0.5]}
        [entry] = _paired_tests(models, s_by_model)
        assert "note" in entry and "degenerate" in entry["note"]

    @pytest.mark.parametrize("diffs, reason", [
        ([0.1, 0.1, 0.1, 0.9], "wilcoxon_upper requires at least 5"),  # fails normality
    ])
    def test_inapplicable_gate_is_not_called_degenerate(self, diffs, reason):
        from genmine.experiment import _paired_tests

        models = [BaselineModel(name="net", kind="trace"),
                  SamplerModel(name="samp", mode="naive", train_config=FAST_TRAIN)]
        s_by_model = {"net": [0.0] * len(diffs), "samp": diffs}
        [entry] = _paired_tests(models, s_by_model)
        assert entry["note"].startswith("gate not applicable: ")
        assert reason in entry["note"]

    def test_more_than_50_systems_are_tested(self):
        from genmine.experiment import _paired_tests

        diffs = [0.01 * i for i in range(51)]
        models = [BaselineModel(name="net", kind="trace"),
                  SamplerModel(name="samp", mode="naive", train_config=FAST_TRAIN)]
        [entry] = _paired_tests(models, {"net": [0.0] * len(diffs), "samp": diffs})
        assert "note" not in entry
        assert entry["method"] in ("paired_t", "wilcoxon")
        assert 0.0 <= entry["p_value"] <= 1.0

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            run_experiment([], standard_models(), ExperimentConfig())
        with pytest.raises(InvalidInputError):
            run_experiment(small_systems(1), [], ExperimentConfig())
        dup = [BaselineModel(name="x", kind="trace"), BaselineModel(name="x", kind="dfg")]
        with pytest.raises(InvalidInputError):
            run_experiment(small_systems(1), dup, ExperimentConfig())


VA, VB, VC = ("a",), ("b",), ("c",)


class TestEstimate:
    @staticmethod
    def trained_on_a_b_drawing_c():
        """A model observed on {a, b} (train a, holdout b) that only draws c."""
        return TrainResult(
            generator=fit_mle(UniqueVariantLog((VC,)), order=1, smoothing=0.0),
            d_p=init_scorer([VA, VB, VC], max_len_ref=1),
            train=UniqueVariantLog((VA,)),
            holdout=UniqueVariantLog((VB,)),
            candidates=(),
            selected_round=0,
            config=TrainConfig(),
        )

    @pytest.mark.parametrize("mode", ["naive", "mh"])
    def test_union_observed_flag(self, mode):
        result = self.trained_on_a_b_drawing_c()
        for union, expected in [(False, {VC}), (True, {VA, VB, VC})]:
            model = SamplerModel(name="s", mode=mode, k=3, kappa=2, patience=3,
                                 union_observed=union)
            sample = experiment.estimate(model, result, np.random.default_rng(0), 1.0)
            assert sample.v_hat_s == expected
            assert sample.v_hat_u == {VC}

    @pytest.mark.parametrize("field", ["k", "kappa", "patience"])
    def test_sampler_settings_below_one_rejected(self, field):
        with pytest.raises(InvalidInputError, match=f"{field} must be >= 1"):
            SamplerModel(name="s", **{field: 0})

    @pytest.mark.parametrize("value", [2.5, True, math.inf])
    @pytest.mark.parametrize("field", ["k", "kappa", "patience"])
    def test_sampler_settings_must_be_integers(self, field, value):
        with pytest.raises(InvalidInputError, match=f"{field} must be an integer"):
            SamplerModel(name="s", **{field: value})
        assert SamplerModel(name="s", **{field: np.int64(3)}).__dict__[field] == 3
