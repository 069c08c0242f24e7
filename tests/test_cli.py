from __future__ import annotations

import json

import pytest

from genmine import (
    SystemSpec,
    build_system,
    playout_enumerate,
    read_variants_tsv,
    save_net,
    synth_event_log,
    write_event_log_csv,
    write_variants_tsv,
)
from genmine.cli import main


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
        assert "error" in err

    def test_usage_error_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["playout", "--max-len", "3"])
        assert exc.value.code == 2


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

    @pytest.mark.parametrize("text", [
        '{"version": 1}',
        '{"version": 1, "generator": {"order": "three"}}',
        '{"version": 1, "generator": null}',
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
        assert json.loads(err)["error"]["type"] == "InvalidInputError"
        assert "Traceback" not in err


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

    def test_report_schema(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        main(self.ARGS + ["--out", str(out)])
        report = json.loads(out.read_text())
        assert report["schema_version"] == 1
        assert report["seed"] == 7
        names = {m["name"] for m in report["systems"][0]["models"]}
        assert names == {"trace", "dfg", "sampler_naive"}
