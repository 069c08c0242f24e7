"""Acceptance suite: one test per release criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion.  Tolerances and runtime bounds are pinned here and are
not meant to be relaxed.
"""

from __future__ import annotations

import json
import math
import time
from bisect import bisect_right
from collections import Counter
from contextlib import contextmanager

import numpy as np
import pytest

from genmine import (
    BaselineModel,
    ExperimentConfig,
    SamplerModel,
    SystemSpec,
    TrainConfig,
    build_system,
    build_variant_logs,
    compute_rates,
    etc_precision,
    mh_chain_candidate,
    normality_gate,
    paired_t_upper,
    playout_enumerate,
    run_experiment,
    score_s,
    shapiro_wilk,
    split_system,
    synth_event_log,
    token_replay_fitness,
    wilcoxon_upper,
)
from genmine.cli import main as cli_main
from genmine.losses import loss_gradient

from .oracles import brute_force_playout, finite_diff_gradient


@contextmanager
def criterion(num: int, text: str):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {num}: {text}")
        raise
    print(f"[PASS] criterion {num}: {text} ({time.perf_counter() - started:.1f}s)")


# Desk-scale ground-truth systems tuned so the flower playout stays
# enumerable: |V_S| in [50, 300], max length 5, alphabet of at most 7.
DESK_SPECS = (
    SystemSpec(seed=14, depth=2, alphabet_budget=8,
               weights={"seq": 1.0, "xor": 1.5, "loop": 0.5}, fanout_min=2, fanout_max=3),
    SystemSpec(seed=57, depth=2, alphabet_budget=8,
               weights={"seq": 1.0, "xor": 1.5, "loop": 0.5}, fanout_min=2, fanout_max=3),
    SystemSpec(seed=78, depth=2, alphabet_budget=8,
               weights={"seq": 1.0, "xor": 1.5, "loop": 0.5}, fanout_min=2, fanout_max=3),
    SystemSpec(seed=93, depth=3, alphabet_budget=8,
               weights={"seq": 1.0, "xor": 1.4, "and": 0.2, "loop": 0.3},
               fanout_min=2, fanout_max=3),
    SystemSpec(seed=133, depth=3, alphabet_budget=8,
               weights={"seq": 1.0, "xor": 1.4, "and": 0.2, "loop": 0.3},
               fanout_min=2, fanout_max=3),
)


def test_criterion_1_count_identity_reproduction():
    with criterion(1, "published-rate reproduction with exact count identities, < 1 s"):
        started = time.perf_counter()
        v_s = sorted({(f"v{i}",) for i in range(178)})
        lplus, v_u = v_s[:124], v_s[124:]
        v_hat = set(lplus[:97]) | set(v_u[:23]) | {(f"g{i}",) for i in range(56)}
        assert len(v_hat) == 176
        report = compute_rates(v_hat, v_s, lplus, v_u)
        assert report.hits_system == 120
        assert report.tp == pytest.approx(0.6818, abs=5e-3)
        assert report.tp_s == pytest.approx(0.6742, abs=5e-3)
        # identities hold exactly on the integer counts
        assert report.tp * report.n_sampled == pytest.approx(
            report.tp_s * report.n_system, abs=1e-12
        )
        assert report.hits_system == report.hits_observed + report.hits_unobserved
        assert report.tp_s * report.n_system == pytest.approx(
            report.tp_o * report.n_observed + report.tp_u * report.n_unobserved, abs=1e-12
        )
        assert time.perf_counter() - started < 1.0


def test_criterion_2_score_s_reference_values():
    with criterion(2, "score_s reference line 0.7071 and sqrt(2) endpoint"):
        assert score_s(0.5, 0.5) == pytest.approx(0.7071, abs=1e-4)
        assert score_s(1.0, 1.0) == pytest.approx(math.sqrt(2.0), abs=1e-12)


def test_criterion_3_mh_distribution_recovery():
    with criterion(3, "MH recovery within TV 0.05; strict pseudocode mode fails it, < 2 min"):
        started = time.perf_counter()
        va, vb, vc = ("a",), ("b",), ("c",)
        target = {va: 0.7, vb: 0.2, vc: 0.1}
        proposal = {va: 1 / 3, vb: 1 / 3, vc: 1 / 3}
        items = list(target)
        # rng.choice(len(items), p=probs), one rng.random() per draw, without
        # its per-call normalization
        cdf = np.cumsum([proposal[v] for v in items])
        cdf = (cdf / cdf[-1]).tolist()

        def draw(rng):
            return items[bisect_right(cdf, rng.random())]

        def oracle_d(v):
            return target[v] / (target[v] + proposal[v])

        def tv_of(strict: bool) -> float:
            rng = np.random.default_rng(2024)
            n = 2000
            finals = Counter(
                mh_chain_candidate(draw, oracle_d, items[i % 3], 500, rng.spawn(1)[0],
                                   strict_pseudocode=strict)[0]
                for i in range(n)
            )
            return 0.5 * sum(abs(finals[v] / n - p) for v, p in target.items())

        assert tv_of(strict=False) < 0.05
        assert tv_of(strict=True) > 0.05
        assert time.perf_counter() - started < 120.0


def test_criterion_4_playout_oracle_equivalence():
    with criterion(4, "playout equals brute-force enumeration on 50 block systems, < 1 min"):
        started = time.perf_counter()
        for seed in range(50):
            spec = SystemSpec(
                seed=seed, depth=(seed % 3) + 1, alphabet_budget=30,
                weights={"seq": 1.0, "xor": 1.0, "and": 0.4, "loop": 0.25},
                fanout_min=2, fanout_max=2,
            )
            net = build_system(spec)
            mine = playout_enumerate(net, max_len=8, token_cap=3, budget=500_000)
            oracle = brute_force_playout(net, max_len=8, token_cap=3, budget=500_000)
            assert mine == oracle, f"seed {seed}"
        assert time.perf_counter() - started < 60.0


def test_criterion_5_conformance_sanity():
    with criterion(5, "trace model overfits cleanly; flower is misleadingly fit"):
        from genmine import flower_model, trace_model

        net = build_system(DESK_SPECS[2])  # |V_S| = 84 >= 50
        v_s = playout_enumerate(net, max_len=None, token_cap=3)
        assert len(v_s) >= 50
        truth = split_system(v_s, 0.7, seed=1)
        log = synth_event_log(truth.lplus)
        lstar, _ = build_variant_logs(log)
        mu = max(len(v) for v in truth.lplus)

        trace_net = trace_model(truth.lplus)
        assert token_replay_fitness(trace_net, lstar) == 1.0
        assert etc_precision(trace_net, lstar) == 1.0
        trace_rates = compute_rates(
            playout_enumerate(trace_net, max_len=mu, token_cap=None),
            v_s, truth.lplus.as_set(), truth.v_u,
        )
        assert trace_rates.tp_u == 0.0

        alphabet = sorted({a for v in v_s for a in v})
        flower = flower_model(alphabet)
        assert token_replay_fitness(flower, lstar) == 1.0
        assert etc_precision(flower, lstar) < 0.5
        flower_rates = compute_rates(
            playout_enumerate(flower, max_len=mu, token_cap=3),
            v_s, truth.lplus.as_set(), truth.v_u,
        )
        assert flower_rates.tp <= 0.1


def test_criterion_6_end_to_end_ordering():
    with criterion(6, "trained sampler beats trace/flower on s (4 of 5); dfg > flower on "
                      "generalization everywhere, < 10 min"):
        started = time.perf_counter()
        systems = [(f"sys{i}", build_system(spec)) for i, spec in enumerate(DESK_SPECS)]
        models = [
            BaselineModel(name="trace", kind="trace"),
            BaselineModel(name="flower", kind="flower"),
            BaselineModel(name="dfg", kind="dfg"),
            SamplerModel(
                name="sampler", mode="naive",
                train_config=TrainConfig(rounds=5, round_samples=2000,
                                         select_sample_size=10_000),
                k=10_000,
            ),
        ]
        report = run_experiment(systems, models, ExperimentConfig(seed=7))
        wins = 0
        for block in report["systems"]:
            counts = block["counts"]
            assert 50 <= counts["n_system"] <= 300
            by_name = {m["name"]: m for m in block["models"]}
            s_sampler = by_name["sampler"]["rates"]["s"]
            if (s_sampler > by_name["trace"]["rates"]["s"]
                    and s_sampler > by_name["flower"]["rates"]["s"]):
                wins += 1
            dfg_gen = by_name["dfg"]["generalization"]["mean"]
            flower_gen = by_name["flower"]["generalization"]["mean"]
            assert dfg_gen > flower_gen, block["name"]
        assert wins >= 4, f"sampler won only {wins} of 5"
        assert time.perf_counter() - started < 600.0


def test_criterion_7_gradient_correctness():
    with criterion(7, "analytic gradients match finite differences on 100 random cases"):
        rng = np.random.default_rng(97)
        cases = 0
        while cases < 100:
            dim = 20
            n = int(rng.integers(2, 8))
            feats_pos = rng.poisson(1.0, size=(n, dim)).astype(float)
            feats_neg = rng.poisson(1.0, size=(n, dim)).astype(float)
            weights = rng.normal(0.0, 0.5, size=dim)
            bias = float(rng.normal(0.0, 0.2))
            grad_w, grad_b, _ = loss_gradient(feats_pos, feats_neg, weights, bias)
            fd_w, fd_b = finite_diff_gradient(feats_pos, feats_neg, weights, bias)
            denom = np.maximum(np.maximum(np.abs(grad_w), np.abs(fd_w)), 1.0)
            assert float(np.max(np.abs(grad_w - fd_w) / denom)) < 1e-5
            assert abs(grad_b - fd_b) / max(abs(grad_b), abs(fd_b), 1.0) < 1e-5
            cases += 1


def test_criterion_8_statistical_battery():
    with criterion(8, "Wilcoxon 1/32, paired-t 0.0371, Shapiro-Wilk W=1, gate branches"):
        _, p_wilcoxon = wilcoxon_upper([1.0, 2.0, 3.0, 4.0, 5.0])
        assert p_wilcoxon == pytest.approx(1 / 32, abs=1e-12)

        t_stat, p_t = paired_t_upper([1.0, 2.0, 3.0])
        assert t_stat == pytest.approx(3.4641, abs=1e-4)
        assert p_t == pytest.approx(0.0371, abs=1e-3)

        w, _ = shapiro_wilk([1.0, 2.0, 3.0])
        assert w == pytest.approx(1.0, abs=1e-6)

        rng = np.random.default_rng(88)
        normal_sample = rng.normal(0.5, 1.0, size=20)
        assert normality_gate(normal_sample).method == "paired_t"
        skewed_sample = [0.1, 0.12, 0.11, 0.13, 0.09, 0.1, 0.14, 0.12, 0.11, 12.0]
        assert normality_gate(skewed_sample).method == "wilcoxon"


def test_criterion_9_experiment_determinism(tmp_path, capsys):
    with criterion(9, "experiment reports byte-identical across reruns and worker counts"):
        args = ["experiment", "--gen-system-seed", "78", "--gen-system-depth", "2",
                "--baseline", "trace", "--baseline", "dfg", "--sampler", "naive",
                "--seed", "7", "--rounds", "1", "--k", "500"]
        blobs = []
        for name, jobs in [("a.json", "1"), ("b.json", "1"), ("c.json", "4")]:
            out = tmp_path / name
            assert cli_main(args + ["--jobs", jobs, "--out", str(out)]) == 0
            blobs.append(out.read_bytes())
        capsys.readouterr()
        assert blobs[0] == blobs[1], "rerun with same seed changed the report"
        assert blobs[0] == blobs[2], "worker count changed the report"
        report = json.loads(blobs[0])
        assert report["schema_version"] == 1
