"""The four benchmark workloads and the checks on their outputs.

Each workload has ``setup(pkg, seed, smoke)``, which builds its inputs from
the seed and returns a state; ``run(pkg, state, step)``, one pass; and
``check(pkg, state, outcome, seed)``, which returns a list of problems
(empty when the pass is correct).  Every call into the package goes through
a module attribute (``pkg.sampling.mh_sample``), so the tracer sees it.

A pass is a fixed sequence of named steps, each one call of the package
that takes at most about 0.2 s: ``step(name, fn, *args)`` calls
``fn(*args)`` and times it against a reference loop run next to it (see
run.py), which works best when the host cannot change speed much within
a step.  The same seed gives the same steps in every pass.  Sizes are
therefore far below the acceptance suite's criterion-6 run: a pass takes
0.1-0.5 s, so a run repeats every step dozens of times.  ``smoke=True``
shrinks the inputs further for the self-test.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field

import numpy as np

DEFAULT_SEED = 7

DESK_WEIGHTS_2 = {"seq": 1.0, "xor": 1.5, "loop": 0.5}
DESK_WEIGHTS_3 = {"seq": 1.0, "xor": 1.4, "and": 0.2, "loop": 0.3}


def _desk_spec(seed: int, weights: dict) -> dict:
    """A system shaped like the acceptance suite's criterion-6 desk systems."""
    return dict(seed=seed, depth=2, alphabet_budget=8, weights=weights,
                fanout_min=2, fanout_max=3)


# sys0 and sys2 of the criterion-6 desk (155 and 84 variants), for MH.
MH_SPECS = (_desk_spec(14, DESK_WEIGHTS_2), _desk_spec(78, DESK_WEIGHTS_2))
# Two 39-variant desk-shaped systems: the trace-net replay of the 84- to
# 258-variant criterion-6 systems takes 0.4-3 s, too long for one step.
SMALL_DESK_SPECS = (_desk_spec(4, DESK_WEIGHTS_2), _desk_spec(56, DESK_WEIGHTS_3))
SPLIT_RATIO = 0.7
TOKEN_CAP = 3


@dataclass
class Outcome:
    """What one pass produced: the report bytes and its work counts."""

    report: bytes
    units: int  # work units for ops_per_ref
    items: int  # attempted items for fail_ratio
    failed: int
    quality: dict = field(default_factory=dict)
    detail: object = None


def _dumps(obj) -> bytes:
    return json.dumps(obj, sort_keys=True).encode()


def _pinned_report_problems(name: str, outcome: Outcome, pinned: str) -> list[str]:
    """The report's sha256 must match the one recorded at DEFAULT_SEED."""
    got = hashlib.sha256(outcome.report).hexdigest()
    if got != pinned:
        return [f"{name} report sha256 {got} differs from the pinned {pinned}"]
    return []


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def _truth(pkg, net, seed: int):
    v_s = pkg.petri.playout_enumerate(net, max_len=None, token_cap=TOKEN_CAP)
    return pkg.metrics.split_system(v_s, SPLIT_RATIO, seed)


def _system_truth(pkg, spec: dict, seed: int):
    return _truth(pkg, pkg.systems.build_system(pkg.systems.SystemSpec(**spec)), seed)


# ---------------------------------------------------------------------------
# desk_naive: the controlled experiment with a naive sampler
# ---------------------------------------------------------------------------

# Each desk spec runs with this many splits, each with its own experiment
# seed.  How long one run_experiment call takes varies by up to 1.4x between
# seeds (mostly trace-net replay of the sampled set); four independent calls
# per pass average that out, where two left a ten-seed spread of 0.13.
NAIVE_SPLITS = 2


def desk_naive_setup(pkg, seed: int, smoke: bool):
    exp = pkg.experiment
    systems = []
    for j in range(1 if smoke else NAIVE_SPLITS):
        for i, spec in enumerate(SMALL_DESK_SPECS[:1] if smoke else SMALL_DESK_SPECS):
            sub = seed * 100 + 10 * j + i
            systems.append((f"desk{i}s{j}", _system_truth(pkg, spec, sub),
                            exp.ExperimentConfig(seed=sub, jobs=1)))
    train = pkg.genmodel.TrainConfig(
        rounds=1,
        round_samples=50 if smoke else 100,
        select_sample_size=100 if smoke else 200,
    )
    models = [
        exp.BaselineModel(name="trace", kind="trace"),
        exp.BaselineModel(name="flower", kind="flower"),
        exp.BaselineModel(name="dfg", kind="dfg"),
        exp.SamplerModel(name="sampler", mode="naive", train_config=train,
                         k=100 if smoke else 200),
    ]
    return {"systems": systems, "models": models, "smoke": smoke}


def desk_naive_run(pkg, state, step) -> Outcome:
    """One run_experiment call per system, each a step.

    The calls cannot be split further: run_experiment scores each net
    against the sampler's variant set of the same call.
    """
    cells = len(state["models"])
    blocks, failed = [], 0
    for name, truth, config in state["systems"]:
        try:
            report = step(name, pkg.experiment.run_experiment,
                          [(name, truth)], state["models"], config)
        except pkg.errors.GenmineError:
            failed += cells
            continue
        blocks += report["systems"]
    samplers, nets = [], []
    for block in blocks:
        for cell in block["models"]:
            (samplers if cell["kind"] == "sampler" else nets).append(cell)
    quality = {
        "tp_u": _mean(c["rates"]["tp_u"] for c in samplers),
        "score_s": _mean(c["rates"]["s"] for c in samplers),
        "generalization": _mean(c["generalization"]["mean"] for c in nets),
    }
    items = cells * len(state["systems"])
    return Outcome(_dumps(blocks), items - failed, items, failed, quality, blocks)


def _count_identity_problems(name: str, counts: dict, rates: dict) -> list[str]:
    """Criterion-1 identities, checked on the integer counts of one cell."""
    problems = []
    if counts["hits_system"] != counts["hits_observed"] + counts["hits_unobserved"]:
        problems.append(f"{name}: system hits do not split into observed + unobserved")
    if not math.isclose(rates["tp"] * counts["n_sampled"], counts["hits_system"], abs_tol=1e-9):
        problems.append(f"{name}: tp * |V_hat| != hits")
    if not math.isclose(rates["tp_s"] * counts["n_system"], counts["hits_system"], abs_tol=1e-9):
        problems.append(f"{name}: tp_S * |V_S| != hits")
    lhs = rates["tp_s"] * counts["n_system"]
    rhs = rates["tp_o"] * counts["n_observed"] + rates["tp_u"] * counts["n_unobserved"]
    if not math.isclose(lhs, rhs, abs_tol=1e-9):
        problems.append(f"{name}: tp_S * |V_S| != tp_o * |L+| + tp_u * |V_u|")
    if counts["n_observed"] + counts["n_unobserved"] != counts["n_system"]:
        problems.append(f"{name}: |L+| + |V_u| != |V_S|")
    return problems


# sha256 of the full-size report bytes at DEFAULT_SEED.  The count
# identities below hold for any sample, so this is what catches a change to
# what is sampled, trained or scored.
DESK_NAIVE_PINNED = "347ff57ade2867c81cc25f3114d49c7ee9fa2f98b11174f66c088c812de49482"


def desk_naive_check(pkg, state, outcome: Outcome, seed: int) -> list[str]:
    if outcome.failed:
        return ["run_experiment raised a domain error"]
    problems = []
    if seed == DEFAULT_SEED and not state["smoke"]:
        problems += _pinned_report_problems("desk_naive", outcome, DESK_NAIVE_PINNED)
    for block in outcome.detail:
        for cell in block["models"]:
            problems += _count_identity_problems(
                f"{block['name']}/{cell['name']}", cell["counts"], cell["rates"]
            )
            if cell["kind"] == "net" and "generalization" not in cell:
                problems.append(f"{block['name']}/{cell['name']}: no generalization score")
    return problems


# ---------------------------------------------------------------------------
# desk_mh: Metropolis-Hastings sampling from generators trained in set-up
# ---------------------------------------------------------------------------

# How long an mh_sample call runs depends on when `patience` consecutive
# chains find nothing new, which varies between rng streams.  So a pass
# runs short calls (patience 1, about 200 proposals each), alternating
# between the systems, until it has scored MH_DRAWS proposals: over ten
# seeds the proposals per pass then vary by 0.06 (IQR/median), against
# 0.15 with patience 2.
MH_KAPPA = 20
MH_PATIENCE = 1
MH_DRAWS = 3_000


def desk_mh_setup(pkg, seed: int, smoke: bool):
    gm = pkg.genmodel
    cfg = gm.TrainConfig(
        seed=seed,
        rounds=1 if smoke else 2,
        round_samples=100 if smoke else 500,
        select_sample_size=200 if smoke else 1000,
    )
    systems = []
    for i, spec in enumerate(MH_SPECS):
        truth = _system_truth(pkg, spec, seed * 100 + i)
        systems.append((f"sys{i}", truth, gm.train_and_select(truth.lplus, cfg)))
    return {"systems": systems, "seed": seed, "draws": 300 if smoke else MH_DRAWS,
            "smoke": smoke}


def _mh_call(pkg, truth, trained, rng):
    """One mh_sample call and the rates of what it found."""
    gm = pkg.genmodel
    gen, d_p, temp = trained.generator, trained.d_p, trained.config.temperature
    sample = pkg.sampling.mh_sample(
        lambda r: gm.sample_variant(gen, temp, r),
        lambda v: gm.score(d_p, v),
        truth.lplus, trained.holdout,
        patience=MH_PATIENCE, kappa=MH_KAPPA, rng=rng,
    )
    report = pkg.metrics.compute_rates(
        sample.v_hat_s, truth.v_s, truth.lplus.as_set(), truth.v_u,
        lplus_e=trained.holdout.as_set(),
    )
    return sample, report


def desk_mh_run(pkg, state, step) -> Outcome:
    sets, rates, quality_rows = {}, {}, []
    units = items = failed = 0
    call = 0
    while units < state["draws"]:
        si, r = call % len(state["systems"]), call // len(state["systems"])
        call += 1
        name, truth, trained = state["systems"][si]
        items += 1
        try:
            sample, report = step(f"{name}/{r}", _mh_call, pkg, truth, trained,
                                  np.random.default_rng([state["seed"], si, r]))
        except pkg.errors.GenmineError:
            failed += 1  # the inputs are fixed, so later calls would fail too
            break
        units += sample.draw_count
        sets[f"{name}/{r}"] = sorted(sample.v_hat_s)
        rates[f"{name}/{r}"] = report.rates_dict()
        quality_rows.append(report)
    quality = {
        "tp_u": _mean(q.tp_u for q in quality_rows),
        "score_s": _mean(q.s for q in quality_rows),
    }
    return Outcome(_dumps({"sets": sets, "rates": rates}), units, items, failed, quality, sets)


# sha256 of the full-size report bytes (sampled sets and rates) at DEFAULT_SEED.
DESK_MH_PINNED = "3ea96c74a772ef594ac85e94e1ff1236d3dcfbe565b37285d0dd76c39aaa1c39"


def desk_mh_check(pkg, state, outcome: Outcome, seed: int) -> list[str]:
    problems = []
    if seed == DEFAULT_SEED and not state["smoke"]:
        problems += _pinned_report_problems("desk_mh", outcome, DESK_MH_PINNED)
    for key, variants in outcome.detail.items():
        name = key.split("/")[0]
        gen = next(t.generator for n, _, t in state["systems"] if n == name)
        for v in variants:
            if len(v) > gen.max_len:
                problems.append(f"{name}: variant {v} longer than max_len {gen.max_len}")
            elif not math.isfinite(gen.log_prob(tuple(v))):
                problems.append(f"{name}: variant {v} has non-finite log_prob")
    return problems


# ---------------------------------------------------------------------------
# net_scoring: conformance of fixed nets against an exact system variant set
# ---------------------------------------------------------------------------

SILENT_WEIGHTS = {"seq": 1, "xor": 1, "and": 1, "loop": 0.3}
# (b) silent/duplicate-label system nets, as (spec seed, depth), with 258
# and 83 variants.  Larger ones (spec seed 4 at depth 3, 258 variants)
# take 0.1 s per step; shorter steps track the reference loop more closely.
SCORING_SILENT = ((1, 2), (4, 2))


def net_scoring_setup(pkg, seed: int, smoke: bool):
    # (a) trace, dfg and flower nets of a desk-shaped system.
    cases = [("desk0", None, _system_truth(pkg, SMALL_DESK_SPECS[0], seed * 100))]
    for s, depth in SCORING_SILENT[1:] if smoke else SCORING_SILENT:
        spec = pkg.systems.SystemSpec(seed=s, depth=depth, alphabet_budget=24,
                                      weights=SILENT_WEIGHTS, silent_skip=True,
                                      duplicate_label=True)
        truth = _truth(pkg, pkg.systems.build_system(spec), seed * 100 + s)
        cases.append((f"silent{s}", spec, truth))
    return {"cases": cases, "smoke": smoke}


def _log_of(pkg, truth):
    lstar, _ = pkg.logs.build_variant_logs(pkg.logs.synth_event_log(truth.lplus))
    return lstar


def _score(pkg, build, v_s):
    return pkg.conformance.model_generalization(build(), v_s)


def net_scoring_run(pkg, state, step) -> Outcome:
    petri = pkg.petri
    scores, gens = {}, []
    items = failed = units = 0
    for case, spec, truth in state["cases"]:
        v_s = sorted(truth.v_s)
        alphabet = sorted({a for v in v_s for a in v})
        lstar = step(f"{case}/log", _log_of, pkg, truth)
        builders = {"dfg": lambda: petri.dfg_discover(lstar),
                    "flower": lambda: petri.flower_model(alphabet)}
        if spec is None:
            builders["trace"] = lambda: petri.trace_model(truth.lplus)
        else:
            builders["system"] = lambda: pkg.systems.build_system(spec)
        for kind, build in builders.items():
            items += 1
            try:
                res = step(f"{case}/{kind}", _score, pkg, build, v_s)
            except pkg.errors.GenmineError:
                failed += 1
                continue
            units += len(v_s)
            gens.append(res.generalization)
            scores[f"{case}/{kind}"] = [res.scores.fitness, res.scores.precision]
    return Outcome(_dumps(scores), units, items, failed,
                   {"generalization": _mean(gens)}, scores)


# Exact [fitness, precision] per net at DEFAULT_SEED.
NET_SCORING_PINNED = {
    "desk0/dfg": [1.0, 0.9338235294117647],
    "desk0/flower": [1.0, 0.46691176470588236],
    "desk0/trace": [0.9313725490196079, 1.0],
    "silent1/dfg": [1.0, 0.9603305785123967],
    "silent1/flower": [1.0, 0.36012396694214877],
    "silent1/system": [1.0, 1.0],
    "silent4/dfg": [1.0, 0.8962001853568119],
    "silent4/flower": [1.0, 0.6074120603015075],
    "silent4/system": [1.0, 1.0],
}


def net_scoring_check(pkg, state, outcome: Outcome, seed: int) -> list[str]:
    problems = []
    for key, (fit, prec) in outcome.detail.items():
        kind = key.split("/")[1]
        if kind == "system" and (fit, prec) != (1.0, 1.0):
            problems.append(f"{key}: system net scores {fit}, {prec} against its own V_S")
        if kind == "flower" and fit != 1.0:
            problems.append(f"{key}: flower fitness {fit} != 1.0")
        if kind == "trace" and prec != 1.0:
            problems.append(f"{key}: trace precision {prec} != 1.0")
    if seed == DEFAULT_SEED and not state["smoke"]:
        if outcome.detail != NET_SCORING_PINNED:
            problems.append(f"scores differ from the pinned values: {outcome.detail}")
    return problems


# ---------------------------------------------------------------------------
# playout: exhaustive enumeration with deep markings and a wide flower
# ---------------------------------------------------------------------------

INTERLEAVE_WEIGHTS = {"seq": 1, "xor": 0.6, "and": 1}
# Spec seeds of depth-3 interleaving systems with 456, 288 and 220
# variants, 20-70 ms each; the 17,280-variant spec seed 11 takes 4-7 s,
# far too long for a step.
PLAYOUT_SYSTEMS = (43, 22, 5)
FLOWER_LABELS = 7


def playout_setup(pkg, seed: int, smoke: bool):
    # Playout has no randomness: the seed does not change the inputs.
    nets = []
    for s in PLAYOUT_SYSTEMS:
        nets.append((f"system{s}", pkg.systems.build_system(pkg.systems.SystemSpec(
            seed=s, depth=2 if smoke else 3, alphabet_budget=24, weights=INTERLEAVE_WEIGHTS,
            silent_skip=True, duplicate_label=True,
        )), None))
    flower = pkg.petri.flower_model([f"a{i}" for i in range(FLOWER_LABELS)])
    max_len = 3 if smoke else 4
    nets.append(("flower", flower, max_len))
    return {"nets": nets, "flower_len": max_len, "smoke": smoke}


def _digest(variants) -> str:
    h = hashlib.sha256()
    for v in sorted(variants):
        h.update("\t".join(v).encode())
        h.update(b"\n")
    return h.hexdigest()


def playout_run(pkg, state, step) -> Outcome:
    found, summary = {}, {}
    failed = 0
    for name, net, max_len in state["nets"]:
        try:
            variants = step(name, pkg.petri.playout_enumerate,
                            net, max_len=max_len, token_cap=TOKEN_CAP)
        except pkg.errors.GenmineError:
            failed += 1
            continue
        found[name] = variants
        # The set's hash stands in for its contents when passes are compared;
        # the full digest is taken once, in the check.
        summary[name] = [len(variants), hash(variants)]
    units = sum(len(v) for v in found.values())
    return Outcome(_dumps(summary), units, len(state["nets"]), failed, {}, found)


# Variant count and sha256 of the sorted, tab-joined variants, at full size.
PLAYOUT_PINNED = {
    "system43": (456, "eb0e0d2d14ddca995765e23e71f4ee56f587e27ef656509aa2a3266a7456af0e"),
    "system22": (288, "820c5cb47044d90c5a30980a623f1b503eda71eff1eebb3e3be18c783a974fd0"),
    "system5": (220, "06d3500f8300de6a9bd3892b3a91f50147138216681dc8ba483b0e865db7fcfe"),
    "flower": (2800, "dde560afd125ac64afdf765538a91cd867e833890149f398105fbd80584b5e3e"),
}


def playout_check(pkg, state, outcome: Outcome, seed: int) -> list[str]:
    problems = []
    found = outcome.detail
    flower = len(found.get("flower", ()))
    # Independent oracle: the flower plays out every word of length 1..max_len.
    oracle = sum(FLOWER_LABELS ** i for i in range(1, state["flower_len"] + 1))
    if flower != oracle:
        problems.append(f"flower playout has {flower} variants, expected {oracle}")
    if not state["smoke"]:
        for name, pinned in PLAYOUT_PINNED.items():
            got = (len(found.get(name, ())), _digest(found.get(name, ())))
            if got != pinned:
                problems.append(f"{name} playout {got} differs from the pinned {pinned}")
    return problems


WORKLOADS = {
    "desk_naive": (desk_naive_setup, desk_naive_run, desk_naive_check),
    "desk_mh": (desk_mh_setup, desk_mh_run, desk_mh_check),
    "net_scoring": (net_scoring_setup, net_scoring_run, net_scoring_check),
    "playout": (playout_setup, playout_run, playout_check),
}
