"""Self-test of the benchmark: a reduced-size run of every workload.

    python3 -m pytest bench/test_bench.py -q

Each workload runs with ``--smoke`` (tiny inputs), untraced and traced.  The
test asserts that the last line carries every metric BENCHMARK.json names,
with its unit, that the output checks ran and passed, and that the checks
reject outputs that are wrong.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "0.1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_emits_every_metric(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    *_, info_line, result_line = proc.stdout.splitlines()
    result = json.loads(result_line)
    info = json.loads(info_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, info["problems"]
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    expected = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == expected
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))


def test_fails_without_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench(tmp_path, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_checks_reject_wrong_outputs():
    sys.path.insert(0, str(BENCH))
    import workloads as w

    counts = {"n_sampled": 10, "n_system": 8, "n_observed": 5, "n_unobserved": 3,
              "hits_system": 6, "hits_observed": 4, "hits_unobserved": 1}
    rates = {"tp": 0.6, "tp_s": 0.75, "tp_o": 0.8, "tp_u": 1 / 3}
    assert w._count_identity_problems("cell", counts, rates)

    scoring = w.Outcome(b"", 1, 1, 0, detail={"silent6/system": [0.99, 1.0],
                                             "desk2/trace": [1.0, 0.9],
                                             "desk2/flower": [0.5, 0.2]})
    assert len(w.net_scoring_check(None, {"smoke": True}, scoring, 1)) == 3

    flower = frozenset((("a0",),))
    playout = w.Outcome(b"", 1, 1, 0, detail={"flower": flower})
    assert w.playout_check(None, {"flower_len": 1, "smoke": True}, playout, 1)

    class Gen:
        max_len = 2

        def log_prob(self, v):
            return 0.0

    class Trained:
        generator = Gen()

    mh = w.Outcome(b"", 1, 1, 0, detail={"sys0/0": [("a", "b", "c")]})
    assert w.desk_mh_check(None, {"systems": [("sys0", None, Trained())], "smoke": True}, mh, 1)

    # At the default seed a report that differs from the pinned one fails,
    # even when every count identity holds.
    assert w.desk_mh_check(None, {"systems": [], "smoke": False},
                           w.Outcome(b"{}", 1, 1, 0, detail={}), w.DEFAULT_SEED)
    assert w.desk_naive_check(None, {"smoke": False},
                              w.Outcome(b"{}", 1, 1, 0, detail=[]),
                              w.DEFAULT_SEED)
