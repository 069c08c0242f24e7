#!/usr/bin/env python3
"""Walkthrough: the full controlled experiment over several ground-truth
systems, with paired statistical tests on the balanced score s.

A similar run from the CLI, with the same seeds, depth, rounds and draw
count:

    genmine experiment \
        --gen-system-seed 14 --gen-system-seed 57 --gen-system-seed 78 \
        --gen-system-depth 2 \
        --baseline trace --baseline flower --baseline dfg \
        --sampler naive --rounds 3 --k 5000 --seed 7 --out report.json

It is not the same experiment.  The CLI builds its systems with the default
operator weights, alphabet budget and fan-out, so they differ from the
ones below.  Its sampler keeps the default round and selection sample sizes.
"""

import json

from genmine import (
    BaselineModel,
    ExperimentConfig,
    SamplerModel,
    SystemSpec,
    TrainConfig,
    build_system,
    run_experiment,
)

SPECS = [
    SystemSpec(seed=14, depth=2, alphabet_budget=8,
               weights={"seq": 1.0, "xor": 1.5, "loop": 0.5}, fanout_min=2, fanout_max=3),
    SystemSpec(seed=57, depth=2, alphabet_budget=8,
               weights={"seq": 1.0, "xor": 1.5, "loop": 0.5}, fanout_min=2, fanout_max=3),
    SystemSpec(seed=78, depth=2, alphabet_budget=8,
               weights={"seq": 1.0, "xor": 1.5, "loop": 0.5}, fanout_min=2, fanout_max=3),
]

systems = [(f"sys{i}", build_system(spec)) for i, spec in enumerate(SPECS)]
models = [
    BaselineModel(name="trace", kind="trace"),
    BaselineModel(name="flower", kind="flower"),
    BaselineModel(name="dfg", kind="dfg"),
    SamplerModel(name="sampler", mode="naive",
                 train_config=TrainConfig(rounds=3, round_samples=1000,
                                          select_sample_size=5000),
                 k=5000),
]

report = run_experiment(systems, models, ExperimentConfig(seed=7))

for block in report["systems"]:
    counts = block["counts"]
    print(f"== {block['name']}: |V_S|={counts['n_system']} "
          f"|A|={counts['alphabet_size']} mu={counts['max_len']}")
    for m in block["models"]:
        rates = m["rates"]
        line = (f"   {m['name']:8s} s={rates['s']:.4f} tp={rates['tp']:.3f} "
                f"tp_u={rates['tp_u']:.3f}")
        if "generalization" in m:
            line += f" gen={m['generalization']['mean']:.3f}"
        print(line)

print("\npaired upper-tailed tests (is the sampler's s higher than the net's?):")
for t in report["paired_tests"]:
    if "p_value" in t:
        print(f"   sampler vs {t['net']:8s} method={t['method']:8s} "
              f"p={t['p_value']:.4f} (shapiro p={t['shapiro_p']:.3f})")
    else:
        print(f"   sampler vs {t['net']:8s} {t['note']}")

with open("experiment_report.json", "w") as fh:
    json.dump(report, fh, indent=2, sort_keys=True)
print("\nfull report written to experiment_report.json")
