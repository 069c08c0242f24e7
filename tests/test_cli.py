from __future__ import annotations

import argparse
import json
from dataclasses import fields
from typing import get_type_hints

import pytest

from genmine import (
    BudgetExceededError,
    ExperimentConfig,
    SamplerModel,
    SystemSpec,
    TrainConfig,
    VariantLog,
    build_system,
    build_variant_logs,
    conformance,
    dfg_discover,
    genmodel,
    load_net,
    playout_enumerate,
    read_event_log_csv,
    read_variants_tsv,
    save_net,
    synth_event_log,
    write_event_log_csv,
    write_variants_tsv,
)
from genmine.cli import build_parser, main
from genmine.genmodel import CHECKPOINT_VERSION

from . import test_conformance
from .conftest import BAD_NAME_NETS

SAMPLER_FLAGS = ("k", "kappa", "patience", "strict_pseudocode", "union_observed")

# (command line with its required flags, dataclass, the fields it exposes as flags)
EXPOSED_FIELDS = {
    "train": (["train", "--log", "l.csv", "--out", "m.json"], TrainConfig,
              ("rounds", "select_sample_size", "temperature", "seed", "order", "smoothing",
               "holdout_fraction", "round_samples")),
    "sample": (["sample", "--model", "m.json", "--out", "o.tsv"], SamplerModel, SAMPLER_FLAGS),
    "experiment-sampler": (["experiment", "--out", "r.json"], SamplerModel, SAMPLER_FLAGS),
    "experiment-train": (["experiment", "--out", "r.json"], TrainConfig,
                         ("rounds", "temperature")),
    "gen-system": (["gen-system", "--seed", "1", "--out", "n.json"], SystemSpec,
                   ("depth", "alphabet_budget", "loop_unroll", "fanout_min", "fanout_max",
                    "silent_skip", "duplicate_label")),
    "experiment-config": (["experiment", "--out", "r.json"], ExperimentConfig,
                          ("seed", "token_cap", "jobs")),
}

# Each subcommand with its required flags.
COMMAND_ARGV = {
    "playout": ["playout", "--net", "n.json", "--max-len", "3", "--out", "v.tsv"],
    "discover-dfg": ["discover-dfg", "--log", "l.csv", "--out", "n.json"],
    "conformance": ["conformance", "--net", "n.json", "--log", "l.csv"],
    "train": ["train", "--log", "l.csv", "--out", "m.json"],
    "sample": ["sample", "--model", "m.json", "--out", "o.tsv"],
    "metrics": ["metrics", "--sampled", "e.tsv", "--system", "s.tsv",
                "--observed", "o.tsv", "--unobserved", "u.tsv"],
    "gen-system": ["gen-system", "--seed", "1", "--out", "n.json"],
    "experiment": ["experiment", "--out", "r.json"],
}


def assert_domain_error(capsys, code, message):
    assert code == 1
    err = capsys.readouterr().err
    assert json.loads(err)["error"] == {"type": "InvalidInputError", "message": message}
    assert "Traceback" not in err


@pytest.fixture
def tiny_net_file(tmp_path):
    net = build_system(SystemSpec(seed=78, depth=2, alphabet_budget=8,
                                  weights={"seq": 1.0, "xor": 1.5, "loop": 0.5},
                                  fanout_min=2, fanout_max=3))
    path = tmp_path / "net.json"
    save_net(net, path)
    return path, net


@pytest.fixture
def tiny_log_file(tmp_path):
    variants = [("a", "b", "c"), ("a", "c"), ("b", "c"), ("a", "b"), ("c", "b"), ("b",)]
    log = synth_event_log(variants)
    path = tmp_path / "log.csv"
    write_event_log_csv(log, path)
    return path, variants


class TestSettingFlags:
    @pytest.mark.parametrize("case", list(EXPOSED_FIELDS))
    def test_flags_follow_their_dataclass(self, case):
        argv, cls, names = EXPOSED_FIELDS[case]
        parser = build_parser()
        hints = get_type_hints(cls)
        defaults = {f.name: f.default for f in fields(cls)}
        parsed = vars(parser.parse_args(argv))
        for name in names:
            flag = "--" + name.replace("_", "-")
            assert parsed[name] == defaults[name], flag
            assert type(parsed[name]) is hints[name], flag
            if hints[name] is bool:
                assert defaults[name] is False
                assert getattr(parser.parse_args(argv + [flag]), name) is True
                with pytest.raises(SystemExit):  # a switch takes no value
                    parser.parse_args(argv + [flag, "1"])
            else:
                value = getattr(parser.parse_args(argv + [flag, "2"]), name)
                assert type(value) is hints[name] and value == 2, flag


class TestPrettyFlag:
    def test_every_command_accepts_it(self):
        parser = build_parser()
        subparsers = next(a for a in parser._actions
                          if isinstance(a, argparse._SubParsersAction))
        assert set(subparsers.choices) == set(COMMAND_ARGV)
        for argv in COMMAND_ARGV.values():
            assert parser.parse_args(argv).pretty is False
            assert parser.parse_args(argv + ["--pretty"]).pretty is True

    def test_prints_one_key_value_line_per_summary_entry(self, tmp_path, capsys):
        argv = ["gen-system", "--seed", "78", "--depth", "2", "--out", str(tmp_path / "n.json"),
                "--profile"]
        assert main(argv) == 0
        summary = json.loads(capsys.readouterr().out)
        assert main(argv + ["--pretty"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert sorted(lines) == sorted(f"{key}: {value}" for key, value in summary.items())
        assert lines[:3] == [f"places: {summary['places']}",
                             f"transitions: {summary['transitions']}",
                             f"out: {tmp_path / 'n.json'}"]


class TestNonFiniteSettings:
    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_train_temperature(self, tmp_path, tiny_log_file, capsys, value):
        log_path, _ = tiny_log_file
        code = main(["--error-json", "train", "--log", str(log_path),
                     "--out", str(tmp_path / "m.json"), "--temperature", value])
        assert_domain_error(capsys, code, f"temperature must be finite and > 0, got {value}")

    @pytest.mark.parametrize("mode", ["naive", "mh"])
    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_sample_temperature(self, tmp_path, tiny_log_file, capsys, mode, value):
        log_path, _ = tiny_log_file
        model = tmp_path / "m.json"
        assert main(["train", "--log", str(log_path), "--out", str(model),
                     "--rounds", "0", "--select-sample-size", "50"]) == 0
        capsys.readouterr()
        code = main(["--error-json", "sample", "--model", str(model), "--mode", mode,
                     "--temperature", value, "--out", str(tmp_path / "o.tsv")])
        assert_domain_error(capsys, code, f"temperature must be finite and > 0, got {value}")

    def test_subnormal_sample_temperature(self, tmp_path, tiny_log_file, capsys):
        log_path, _ = tiny_log_file
        model = tmp_path / "m.json"
        assert main(["train", "--log", str(log_path), "--out", str(model),
                     "--rounds", "0", "--select-sample-size", "50"]) == 0
        capsys.readouterr()
        code = main(["--error-json", "sample", "--model", str(model),
                     "--temperature", "1e-320", "--out", str(tmp_path / "o.tsv")])
        assert_domain_error(capsys, code, "temperature must be >= 1e-300, got 1e-320")

    @pytest.mark.parametrize("weights", ["seq=nan", "seq=inf,xor=1", "seq=1e308,xor=1e308"])
    def test_gen_system_weights(self, tmp_path, capsys, weights):
        code = main(["--error-json", "gen-system", "--seed", "1", "--weights", weights,
                     "--out", str(tmp_path / "n.json")])
        assert_domain_error(
            capsys, code, "weights must be non-negative with a positive finite sum")


class TestNonUtf8Input:
    @pytest.mark.parametrize("argv, what", [
        (["discover-dfg", "--log", "{path}", "--out", "{out}"], "event log"),
        (["train", "--variants", "{path}", "--out", "{out}"], "variant file"),
    ])
    def test_is_a_domain_error(self, tmp_path, capsys, argv, what):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"\xffcase_id,activity,timestamp\n")
        out = tmp_path / "out.json"
        code = main(["--error-json"] + [a.format(path=bad, out=out) for a in argv])
        assert code == 1
        err = capsys.readouterr().err
        error = json.loads(err)["error"]
        assert error["type"] == "InvalidInputError"
        assert error["message"].startswith(f"{what} {str(bad)!r} is not UTF-8 text: ")
        assert "Traceback" not in err


class TestPlayoutCommand:
    def test_wraps_library_call(self, tmp_path, tiny_net_file, capsys):
        net_path, net = tiny_net_file
        out = tmp_path / "variants.tsv"
        code = main(["playout", "--net", str(net_path), "--max-len", "5",
                     "--token-cap", "3", "--out", str(out)])
        assert code == 0
        direct = playout_enumerate(net, max_len=5, token_cap=3)
        assert set(read_variants_tsv(out)) == direct
        summary = json.loads(capsys.readouterr().out)
        assert summary["variants"] == len(direct)

    def test_missing_file_is_domain_error(self, tmp_path, capsys):
        code = main(["playout", "--net", str(tmp_path / "nope.json"),
                     "--max-len", "3", "--out", str(tmp_path / "o.tsv")])
        assert code == 1

    def test_error_json_flag(self, tmp_path, capsys):
        code = main(["--error-json", "playout", "--net", str(tmp_path / "nope.json"),
                     "--max-len", "3", "--out", str(tmp_path / "o.tsv")])
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert set(err["error"]) == {"type", "message"}

    @pytest.mark.parametrize("budget", [1, 5])
    def test_budget_error_json_carries_the_partial_count(self, tmp_path, tiny_net_file,
                                                         capsys, budget):
        net_path, net = tiny_net_file
        with pytest.raises(BudgetExceededError) as want:
            playout_enumerate(net, max_len=5, budget=budget)
        code = main(["--error-json", "playout", "--net", str(net_path), "--max-len", "5",
                     "--budget", str(budget), "--out", str(tmp_path / "o.tsv")])
        assert code == 1
        error = json.loads(capsys.readouterr().err)["error"]
        assert error == {"type": "BudgetExceededError", "message": str(want.value),
                         "partial_count": want.value.partial_count}
        assert type(error["partial_count"]) is int

    def test_usage_error_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["playout", "--max-len", "3"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("initial_marking", [{"p": "x"}, {"p_start": 1.7}, [["p", 1]], None],
                             ids=["non_int_count", "fractional_count", "list", "not_json"])
    def test_malformed_net_is_domain_error(self, tmp_path, tiny_net_file, capsys,
                                           initial_marking):
        net_path, _ = tiny_net_file
        if initial_marking is None:
            net_path.write_text("not json")
        else:
            data = json.loads(net_path.read_text())
            data["initial_marking"] = initial_marking
            net_path.write_text(json.dumps(data))
        code = main(["--error-json", "playout", "--net", str(net_path),
                     "--max-len", "3", "--out", str(tmp_path / "o.tsv")])
        assert code == 1
        err = capsys.readouterr().err
        error = json.loads(err)["error"]
        assert error["type"] == "InvalidInputError"
        assert error["message"].startswith("malformed net JSON")
        assert "Traceback" not in err


class TestDiscoverAndConformance:
    def test_dfg_then_conformance(self, tmp_path, tiny_log_file, capsys):
        log_path, _ = tiny_log_file
        net_out = tmp_path / "dfg.json"
        assert main(["discover-dfg", "--log", str(log_path), "--out", str(net_out)]) == 0
        capsys.readouterr()
        scores_out = tmp_path / "scores.json"
        assert main(["conformance", "--net", str(net_out), "--log", str(log_path),
                     "--out", str(scores_out)]) == 0
        scores = json.loads(scores_out.read_text())
        assert scores["fitness"] == 1.0  # dfg replays its own log
        assert 0.0 <= scores["precision"] <= 1.0
        assert scores["generalization"] > 0.0

    def test_conformance_walks_the_log_once(self, tmp_path, monkeypatch, capsys):
        # The dfg of two variants does not fit the log's "c" variants, which
        # repeat, so the scores depend on the log's multiplicity.
        net_path, log_path = tmp_path / "dfg.json", tmp_path / "log.csv"
        save_net(dfg_discover(VariantLog((("a", "b"), ("a", "c", "b")))), net_path)
        rows = [(case, label, f"2020-01-01T00:00:0{j}")
                for case, v in enumerate([("a", "b"), ("c",), ("c",), ("c", "a", "b")])
                for j, label in enumerate(v)]
        log_path.write_text("case_id,activity,timestamp\n"
                            + "".join(f"c{case},{label},{stamp}\n" for case, label, stamp in rows))
        lstar, _ = build_variant_logs(read_event_log_csv(log_path))
        assert len(lstar) > len(set(lstar))
        net = load_net(net_path)
        fitness = conformance.token_replay_fitness(net, lstar)
        precision = conformance.etc_precision(net, lstar)
        want = json.dumps({
            "fitness": fitness,
            "precision": precision,
            "generalization": conformance.generalization_score(fitness, precision),
            "fitness_method": "token_replay",
            "precision_method": "escaping_edges",
        }, indent=2, sort_keys=True) + "\n"
        assert fitness < 1.0
        walks = []
        walk = conformance._walk_log

        def counted(cn, log):
            walks.append(log)
            return walk(cn, log)

        monkeypatch.setattr(conformance, "_walk_log", counted)
        scores_out = tmp_path / "scores.json"
        assert main(["conformance", "--net", str(net_path), "--log", str(log_path),
                     "--out", str(scores_out)]) == 0
        assert walks == [lstar]
        assert scores_out.read_text() == want
        assert capsys.readouterr().out == want

    @pytest.mark.parametrize("limit", [1, 19])
    def test_precision_past_the_closure_limit_is_a_domain_error(self, tmp_path, monkeypatch,
                                                                capsys, limit):
        # Three tokens that silent moves walk along four places reach 20
        # markings before the log's one "a": a one-line JSON error carrying
        # the limit + 1, and exit code 1.
        net_path, log_path = tmp_path / "n.json", tmp_path / "l.csv"
        save_net(test_conformance.TestBudgetEdges._shuffle_net(), net_path)
        log_path.write_text("case_id,activity,timestamp\nc1,a,2020-01-01T00:00:00\n")
        monkeypatch.setattr(conformance, "_CLOSURE_LIMIT", limit)
        code = main(["--error-json", "conformance", "--net", str(net_path),
                     "--log", str(log_path)])
        assert code == 1
        out, err = capsys.readouterr()
        assert json.loads(err)["error"] == {
            "type": "BudgetExceededError",
            "message": "escaping-edges replay exceeded marking limit",
            "partial_count": limit + 1,
        }
        assert "Traceback" not in err and out == ""

    def test_mixed_timezones_are_domain_error(self, tmp_path, capsys):
        log_path = tmp_path / "mixed.csv"
        log_path.write_text("case_id,activity,timestamp\n"
                            "c1,a,2020-01-01T00:00:00Z\n"
                            "c1,b,2020-01-01T00:00:01\n")
        code = main(["--error-json", "discover-dfg", "--log", str(log_path),
                     "--out", str(tmp_path / "dfg.json")])
        assert code == 1
        err = capsys.readouterr().err
        error = json.loads(err)["error"]
        assert error["type"] == "InvalidInputError"
        assert "naive and offset-aware" in error["message"]
        assert "Traceback" not in err


class TestTrainAndSample:
    def test_train_sample_roundtrip(self, tmp_path, tiny_log_file, capsys):
        log_path, variants = tiny_log_file
        model_out = tmp_path / "model.json"
        assert main(["train", "--log", str(log_path), "--out", str(model_out),
                     "--rounds", "1", "--round-samples", "100",
                     "--select-sample-size", "200", "--seed", "5"]) == 0
        capsys.readouterr()
        v_out = tmp_path / "sampled.tsv"
        meta_out = tmp_path / "meta.json"
        assert main(["sample", "--model", str(model_out), "--mode", "naive",
                     "--k", "300", "--seed", "5", "--out", str(v_out),
                     "--meta", str(meta_out)]) == 0
        sampled = read_variants_tsv(v_out)
        assert len(sampled) >= 1
        meta = json.loads(meta_out.read_text())
        assert meta["draws"] == 300 and meta["mode"] == "naive"

    def test_sample_defaults_to_trained_temperature(self, tmp_path, tiny_log_file, capsys):
        log_path, _ = tiny_log_file
        model_out = tmp_path / "model.json"
        assert main(["train", "--log", str(log_path), "--out", str(model_out),
                     "--rounds", "1", "--round-samples", "100",
                     "--select-sample-size", "200", "--temperature", "0.5"]) == 0
        meta_out = tmp_path / "meta.json"
        assert main(["sample", "--model", str(model_out), "--k", "50",
                     "--out", str(tmp_path / "s.tsv"), "--meta", str(meta_out)]) == 0
        assert json.loads(meta_out.read_text())["temperature"] == 0.5
        assert main(["sample", "--model", str(model_out), "--k", "50", "--temperature", "2",
                     "--out", str(tmp_path / "s.tsv"), "--meta", str(meta_out)]) == 0
        assert json.loads(meta_out.read_text())["temperature"] == 2.0

    def test_mh_mode_uses_chain_params(self, tmp_path, tiny_log_file, capsys):
        log_path, _ = tiny_log_file
        model_out = tmp_path / "model.json"
        main(["train", "--log", str(log_path), "--out", str(model_out),
              "--rounds", "1", "--round-samples", "100",
              "--select-sample-size", "200", "--seed", "5"])
        capsys.readouterr()
        v_out = tmp_path / "mh.tsv"
        meta_out = tmp_path / "mh_meta.json"
        assert main(["sample", "--model", str(model_out), "--mode", "mh",
                     "--kappa", "20", "--patience", "10", "--seed", "6",
                     "--out", str(v_out), "--meta", str(meta_out)]) == 0
        meta = json.loads(meta_out.read_text())
        assert meta["kappa"] == 20 and meta["acceptance_rate"] is not None

    def test_mh_union_observed_writes_the_observed_log(self, tmp_path, tiny_log_file, capsys):
        log_path, variants = tiny_log_file
        model_out = tmp_path / "model.json"
        assert main(["train", "--log", str(log_path), "--out", str(model_out),
                     "--rounds", "1", "--round-samples", "100",
                     "--select-sample-size", "200", "--seed", "3"]) == 0
        v_out = tmp_path / "mh.tsv"
        assert main(["sample", "--model", str(model_out), "--mode", "mh",
                     "--kappa", "20", "--patience", "10", "--seed", "3",
                     "--union-observed", "--out", str(v_out)]) == 0
        assert set(variants) <= set(read_variants_tsv(v_out))

    @pytest.mark.parametrize("text", [
        json.dumps({"version": CHECKPOINT_VERSION}),
        json.dumps({"version": CHECKPOINT_VERSION, "generator": {"order": "three"}}),
        json.dumps({"version": CHECKPOINT_VERSION, "generator": None}),
        "[1]",
        "not json",
    ])
    def test_malformed_checkpoint_is_domain_error(self, tmp_path, capsys, text):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        code = main(["--error-json", "sample", "--model", str(bad),
                     "--out", str(tmp_path / "o.tsv")])
        assert code == 1
        err = capsys.readouterr().err
        error = json.loads(err)["error"]
        assert error["type"] == "InvalidInputError"
        assert error["message"].startswith("malformed checkpoint")
        assert "Traceback" not in err

    @pytest.mark.parametrize("version", [1, 2, 3])
    def test_old_checkpoint_version_rejected(self, tmp_path, tiny_log_file, capsys, version):
        log_path, _ = tiny_log_file
        model = tmp_path / "model.json"
        assert main(["train", "--log", str(log_path), "--out", str(model),
                     "--rounds", "0", "--select-sample-size", "50"]) == 0
        payload = json.loads(model.read_text())
        payload["version"] = version
        # what the older versions carried: version 3 four TrainConfig fields
        # that are now constants, version 2 also a second scorer and a field
        # for the reinforcement weight, version 1 also an evaluation interval
        payload["config"].update(pretrain_passes=2, batch_size=32, learning_rate=0.5,
                                 reinforce_threshold=0.5)
        if version <= 2:
            payload["d_r"] = payload["d_p"]
            payload["config"]["reinforce_weight"] = 0.5
        if version == 1:
            payload["config"]["eval_interval"] = 1
        model.write_text(json.dumps(payload))
        capsys.readouterr()
        code = main(["--error-json", "sample", "--model", str(model),
                     "--out", str(tmp_path / "o.tsv")])
        assert code == 1
        error = json.loads(capsys.readouterr().err)["error"]
        assert error == {"type": "InvalidInputError",
                         "message": f"unsupported checkpoint version {version}"}

    def test_train_deduplicates_variant_lines(self, tmp_path, capsys):
        lines = [("a", "b", "c"), ("b",), ("a", "c"), ("a", "b", "c"), ("c", "b"),
                 ("b",), ("a", "b"), ("b", "c"), ("a", "c")]
        unique = list(dict.fromkeys(lines))
        variants = tmp_path / "variants.tsv"
        variants.write_text("".join("\t".join(v) + "\n" for v in lines))
        model = tmp_path / "model.json"
        assert main(["train", "--variants", str(variants), "--out", str(model),
                     "--rounds", "0", "--select-sample-size", "50",
                     "--holdout-fraction", "0.5"]) == 0
        assert json.loads(capsys.readouterr().out)["observed_variants"] == len(unique)
        checkpoint = json.loads(model.read_text())
        train = [tuple(v) for v in checkpoint["train_variants"]]
        holdout = [tuple(v) for v in checkpoint["holdout_variants"]]
        assert sorted(train + holdout) == sorted(unique)
        assert train == [v for v in unique if v in train]
        assert holdout == [v for v in unique if v in holdout]

    @pytest.mark.parametrize("mode, recorded", [("naive", None), ("mh", True)])
    def test_meta_records_strict_pseudocode_only_for_mh(self, tmp_path, tiny_log_file, capsys,
                                                        mode, recorded):
        log_path, _ = tiny_log_file
        model = tmp_path / "model.json"
        assert main(["train", "--log", str(log_path), "--out", str(model),
                     "--rounds", "0", "--select-sample-size", "50"]) == 0
        meta_out = tmp_path / "meta.json"
        assert main(["sample", "--model", str(model), "--mode", mode, "--k", "20",
                     "--kappa", "5", "--patience", "5", "--strict-pseudocode",
                     "--out", str(tmp_path / "o.tsv"), "--meta", str(meta_out)]) == 0
        assert json.loads(meta_out.read_text())["strict_pseudocode"] is recorded


class TestNegativeSeed:
    @pytest.mark.parametrize("argv", [
        ["gen-system", "--seed", "-1", "--out", "{tmp}/n.json"],
        ["train", "--log", "{log}", "--seed", "-1", "--out", "{tmp}/m.json"],
        ["sample", "--model", "{model}", "--seed", "-1", "--out", "{tmp}/o.tsv"],
        ["experiment", "--gen-system-seed", "78", "--gen-system-depth", "2",
         "--sampler", "naive", "--seed", "-1", "--out", "{tmp}/r.json"],
    ], ids=["gen-system", "train", "sample", "experiment"])
    def test_is_a_domain_error(self, tmp_path, tiny_log_file, capsys, argv):
        log_path, _ = tiny_log_file
        model = tmp_path / "model.json"
        assert main(["train", "--log", str(log_path), "--out", str(model),
                     "--rounds", "0", "--select-sample-size", "50"]) == 0
        capsys.readouterr()
        code = main([a.format(tmp=tmp_path, log=log_path, model=model) for a in argv])
        assert code == 1
        err = capsys.readouterr().err
        assert err == "error: seed must be >= 0\n"


class TestMetricsCommand:
    def test_counts_match_direct_call(self, tmp_path, capsys):
        v_s = sorted({(f"v{i}",) for i in range(20)})
        files = {}
        for name, content in [
            ("system", v_s), ("observed", v_s[:14]), ("unobserved", v_s[14:]),
            ("sampled", v_s[:10]),
        ]:
            path = tmp_path / f"{name}.tsv"
            write_variants_tsv(content, path)
            files[name] = str(path)
        assert main(["metrics", "--sampled", files["sampled"], "--system", files["system"],
                     "--observed", files["observed"], "--unobserved", files["unobserved"]]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["counts"]["hits_system"] == 10
        assert payload["rates"]["tp"] == 1.0


class TestGenSystemCommand:
    def test_profile_output(self, tmp_path, capsys):
        out = tmp_path / "sys.json"
        assert main(["gen-system", "--seed", "78", "--depth", "2",
                     "--alphabet-budget", "8", "--weights", "seq=1,xor=1.5,loop=0.5",
                     "--out", str(out), "--profile"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["variant_count"] >= 1
        assert out.exists()

    def test_profile_counts_a_playout_past_the_budget(self, tmp_path, capsys):
        # Seed 9 has far more variants than the playout budget allows to
        # list; the profile counts them instead.
        assert main(["gen-system", "--seed", "9", "--out", str(tmp_path / "n.json"),
                     "--profile"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert (summary["max_variant_len"], summary["variant_count"]) == (17, 32_691_859_200)

    def test_playout_past_the_budget_is_a_domain_error(self, tmp_path, capsys):
        # The same net listed to its longest variant's length runs out of
        # the default budget: a one-line JSON error and exit code 1.
        net = tmp_path / "n.json"
        assert main(["gen-system", "--seed", "9", "--out", str(net)]) == 0
        capsys.readouterr()
        code = main(["--error-json", "playout", "--net", str(net), "--max-len", "17",
                     "--out", str(tmp_path / "v.tsv")])
        assert code == 1
        err = capsys.readouterr().err
        error = json.loads(err)["error"]
        assert error["type"] == "BudgetExceededError"
        assert error["message"] == "playout exceeded budget of 10000000 expansions"
        assert "Traceback" not in err
        assert not (tmp_path / "v.tsv").exists()

    def test_deterministic_net_file(self, tmp_path, capsys):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        main(["gen-system", "--seed", "9", "--out", str(out1)])
        main(["gen-system", "--seed", "9", "--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()


class TestExperimentCommand:
    ARGS = ["experiment", "--gen-system-seed", "78", "--gen-system-depth", "2",
            "--baseline", "trace", "--baseline", "dfg", "--sampler", "naive",
            "--seed", "7", "--rounds", "1", "--k", "300"]

    def test_byte_identical_reruns_and_jobs(self, tmp_path, capsys):
        outs = []
        for name, jobs in [("r1.json", "1"), ("r2.json", "1"), ("r3.json", "2")]:
            out = tmp_path / name
            code = main(self.ARGS + ["--jobs", jobs, "--out", str(out)])
            assert code == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1] == outs[2]

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_is_domain_error(self, tmp_path, capsys, jobs):
        code = main(["--error-json", *self.ARGS, "--jobs", jobs,
                     "--out", str(tmp_path / "r.json")])
        assert code == 1
        err = capsys.readouterr().err
        assert json.loads(err)["error"] == {"type": "InvalidInputError",
                                            "message": "jobs must be >= 1"}
        assert "Traceback" not in err

    def test_sampler_setting_below_one_fails_before_training(self, tmp_path, capsys,
                                                             monkeypatch):
        def train_and_select(*args):
            raise AssertionError("train_and_select must not run")

        monkeypatch.setattr(genmodel, "train_and_select", train_and_select)
        code = main(["--error-json", *self.ARGS, "--k", "0", "--out", str(tmp_path / "r.json")])
        assert code == 1
        assert json.loads(capsys.readouterr().err)["error"] == {
            "type": "InvalidInputError", "message": "k must be >= 1"}

    def test_report_schema(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        main(self.ARGS + ["--out", str(out)])
        report = json.loads(out.read_text())
        assert report["schema_version"] == 1
        assert report["seed"] == 7
        names = {m["name"] for m in report["systems"][0]["models"]}
        assert names == {"trace", "dfg", "sampler_naive"}


class TestNetNames:
    @pytest.mark.parametrize("command", [
        ["playout", "--max-len", "3", "--out", "{tmp}/o.tsv"],
        ["conformance", "--log", "{log}"],
        ["experiment", "--baseline", "trace", "--out", "{tmp}/r.json"],
    ], ids=["playout", "conformance", "experiment"])
    @pytest.mark.parametrize("case", list(BAD_NAME_NETS))
    def test_name_that_is_not_a_string_is_a_domain_error(self, tmp_path, tiny_log_file, capsys,
                                                          case, command):
        data, message = BAD_NAME_NETS[case]
        net_path = tmp_path / "net.json"
        net_path.write_text(json.dumps(data))
        net_flag = "--system" if command[0] == "experiment" else "--net"
        argv = [a.format(tmp=tmp_path, log=tiny_log_file[0]) for a in command]
        code = main([*argv, net_flag, str(net_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert err == f"error: malformed net JSON: {message}\n"
        assert "Traceback" not in err


class TestFlagPaths:
    @pytest.mark.parametrize("weights", ["seq", "seq=1,xor", "seq=1,"])
    def test_weights_part_without_value_exits_2(self, tmp_path, weights):
        with pytest.raises(SystemExit) as exc:
            main(["gen-system", "--seed", "1", "--weights", weights,
                  "--out", str(tmp_path / "n.json")])
        assert exc.value.code == 2

    def test_metrics_out_holds_the_printed_payload(self, tmp_path, capsys):
        v_s = [(f"v{i}",) for i in range(6)]
        files = {}
        for name, content in [("system", v_s), ("observed", v_s[:4]),
                              ("unobserved", v_s[4:]), ("sampled", v_s[:3])]:
            files[name] = str(tmp_path / f"{name}.tsv")
            write_variants_tsv(content, files[name])
        out = tmp_path / "m.json"
        assert main(["metrics", "--sampled", files["sampled"], "--system", files["system"],
                     "--observed", files["observed"], "--unobserved", files["unobserved"],
                     "--out", str(out)]) == 0
        assert json.loads(out.read_text()) == json.loads(capsys.readouterr().out)

    def test_experiment_reads_a_system_net_file(self, tmp_path, tiny_net_file, capsys):
        net_path, net = tiny_net_file
        out = tmp_path / "r.json"
        assert main(["experiment", "--system", str(net_path), "--baseline", "trace",
                     "--seed", "7", "--out", str(out)]) == 0
        [system] = json.loads(out.read_text())["systems"]
        assert system["name"] == "net"
        assert system["counts"]["n_system"] == len(playout_enumerate(net, max_len=None))
