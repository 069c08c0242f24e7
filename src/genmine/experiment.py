"""End-to-end controlled experiment runner.

For each ground-truth system: play out its variant set (or accept a
pre-split truth), hold out the unobserved share, and score every requested
model against the truth.  Each (system, model) cell does all of that
model's work and returns its finished report block.  A sampler cell
trains the built-in generator on the observed variants and estimates the
system set naively or via Metropolis-Hastings (:func:`estimate`).  A net
cell builds its net once and takes its rates from counts and membership:
it counts the net's playout up to the length of the longest observed
variant and tests each system variant for membership, both on the net's
playout automaton, without listing the playout.  It then scores the net's
generalization against every sampler's estimated variant set of the same
system.  Sampler cells therefore run first and net cells second, both
through the same executor.

Reports are plain dicts ready for JSON: all randomness is derived from
(seed, system index, model index), every set is serialized sorted, and
wall-clock timing is only included on request, so a fixed seed yields
byte-identical reports regardless of the worker count.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import asdict, dataclass, field, replace
from typing import Mapping, Sequence, Union

import numpy as np

from . import conformance, genmodel, metrics, petri, sampling, stats
from .errors import DegenerateInputError, GenmineError, InvalidInputError, check_count, check_real
from .genmodel import TrainConfig, TrainResult
from .logs import UniqueVariantLog, Variant
from .metrics import SystemTruth
from .petri import DEFAULT_BUDGET, DEFAULT_TOKEN_CAP, PetriNet
from .sampling import SampleResult

SCHEMA_VERSION = 1

BASELINE_KINDS = ("trace", "flower", "dfg")


@dataclass(frozen=True)
class NetModel:
    """A fixed net under evaluation (e.g. loaded from an interchange file)."""

    name: str
    net: PetriNet


@dataclass(frozen=True)
class BaselineModel:
    """A net constructed per system from the observed log: trace, flower, or dfg."""

    name: str
    kind: str

    def __post_init__(self):
        if self.kind not in BASELINE_KINDS:
            raise InvalidInputError(f"unknown baseline kind {self.kind!r}")


@dataclass(frozen=True)
class SamplerModel:
    """The built-in trained sampler, naive or MH flavored."""

    name: str
    mode: str = "naive"
    train_config: TrainConfig = field(default_factory=TrainConfig)
    k: int = sampling.DEFAULT_NAIVE_DRAWS
    kappa: int = sampling.DEFAULT_CHAIN_LENGTH
    patience: int = sampling.DEFAULT_PATIENCE
    strict_pseudocode: bool = False
    union_observed: bool = False

    def __post_init__(self):
        if self.mode not in ("naive", "mh"):
            raise InvalidInputError(f"sampler mode must be naive or mh, got {self.mode!r}")
        for name in ("k", "kappa", "patience"):
            check_count(name, getattr(self, name))


ModelSpec = Union[NetModel, BaselineModel, SamplerModel]


@dataclass(frozen=True)
class ExperimentConfig:
    seed: int = 0
    split_ratio: float = 0.7
    token_cap: int = DEFAULT_TOKEN_CAP
    jobs: int = 1
    include_timing: bool = False

    def __post_init__(self):
        check_count("seed", self.seed, minimum=0)
        for name in ("jobs", "token_cap"):
            check_count(name, getattr(self, name))
        check_real("split_ratio", self.split_ratio, "(0,1)")


def _task_seed(seed: int, system_index: int, model_index: int) -> int:
    return (seed * 1_000_003 + system_index * 10_007 + model_index * 101 + 13) % (2**31 - 1)


def _prepare_system(
    system: PetriNet | SystemTruth, cfg: ExperimentConfig, system_index: int
) -> SystemTruth:
    """Play out and split a net; a given truth passes through."""
    if isinstance(system, SystemTruth):
        return system
    v_s = petri.playout_enumerate(system, max_len=None, token_cap=cfg.token_cap)
    return metrics.split_system(v_s, cfg.split_ratio, _task_seed(cfg.seed, system_index, 0))


def estimate(
    model: SamplerModel,
    result: TrainResult,
    rng: np.random.Generator,
    temperature: float,
) -> SampleResult:
    """Estimate a system's variants from a trained model, naively or by MH.

    The observed log is the one ``result`` was trained on, its train and
    holdout slices together; MH chains start from the holdout slice.  With
    ``model.union_observed`` the observed variants join the estimate in
    either mode.
    """
    lplus = UniqueVariantLog(result.train.variants + result.holdout.variants)
    draw = lambda r: genmodel.sample_variant(result.generator, temperature, r)
    if model.mode == "naive":
        sample = sampling.naive_sample(draw, lplus, model.k, rng)
    else:
        sample = sampling.mh_sample(
            draw, lambda v: genmodel.score(result.d_p, v), lplus, result.holdout,
            patience=model.patience, kappa=model.kappa, rng=rng,
            strict_pseudocode=model.strict_pseudocode,
        )
    if model.union_observed:
        sample = replace(sample, v_hat_s=sample.v_hat_s | lplus.as_set())
    return sample


def _rates_block(name: str, kind: str, report: metrics.MetricsReport) -> dict:
    return {"name": name, "kind": kind, "counts": report.counts_dict(),
            "rates": report.rates_dict()}


def _sampler_block(truth: SystemTruth, model: SamplerModel, cfg: ExperimentConfig,
                   si: int, mi: int) -> tuple[dict, frozenset[Variant]]:
    tcfg = replace(model.train_config, seed=_task_seed(cfg.seed, si, mi))
    result = genmodel.train_and_select(truth.lplus, tcfg)
    rng = np.random.default_rng([cfg.seed, si, mi, 2])
    sample = estimate(model, result, rng, tcfg.temperature)
    report = metrics.compute_rates(sample.v_hat_s, truth.v_s, truth.lplus.as_set(), truth.v_u,
                                   result.holdout.as_set())
    block = _rates_block(model.name, "sampler", report)
    block["sampler_meta"] = {
        "mode": model.mode,
        "draws": sample.draw_count,
        "acceptance_rate": sample.acceptance_rate,
        "selected_round": result.selected_round,
        "candidates": [
            {"round": c.round_index, "tp_e": c.tp_e, "sample_count": c.sample_count}
            for c in result.candidates
        ],
        "train_seed": tcfg.seed,
    }
    return block, sample.v_hat_s


def _net_block(truth: SystemTruth, model: NetModel | BaselineModel, cfg: ExperimentConfig,
               sampler_sets: Mapping[str, frozenset[Variant]]) -> dict:
    if isinstance(model, NetModel):
        net = model.net
    elif model.kind == "trace":
        net = petri.trace_model(truth.lplus)
    elif model.kind == "flower":
        net = petri.flower_model({a for v in truth.lplus for a in v})
    else:
        net = petri.dfg_discover(truth.lplus)
    # A SystemTruth's longest observed variant is a longest one of V_S, so
    # the playout at mu holds every variant of V_S that the net accepts.
    mu = max(len(v) for v in truth.lplus)
    hits = [sum(petri.accepts(net, v, mu, cfg.token_cap) for v in part)
            for part in (truth.lplus, truth.v_u)]
    report = metrics.MetricsReport(
        n_sampled=petri.count_playout(net, mu, cfg.token_cap),
        n_system=len(truth.v_s), n_observed=len(truth.lplus), n_unobserved=len(truth.v_u),
        hits_system=sum(hits), hits_observed=hits[0], hits_unobserved=hits[1],
    )
    block = _rates_block(model.name, "net", report)
    per_sampler = {}
    for sampler_name, variants in sorted(sampler_sets.items()):
        if not variants:
            per_sampler[sampler_name] = {"generalization": 0.0, "fitness": 0.0, "precision": 0.0,
                                         "note": "empty estimated variant set"}
            continue
        res = conformance.model_generalization(net, variants)
        per_sampler[sampler_name] = {"generalization": res.generalization,
                                     "fitness": res.scores.fitness,
                                     "precision": res.scores.precision}
    if per_sampler:
        gens = [v["generalization"] for v in per_sampler.values()]
        block["generalization"] = {"per_sampler": per_sampler, "mean": sum(gens) / len(gens)}
    return block


def _run_cell(payload: tuple) -> tuple[dict, frozenset[Variant] | None]:
    """Evaluate one (system, model) cell; a pure function of its payload.

    Returns the cell's finished report block and, for a sampler cell, its
    estimated variant set.  A net cell scores its net's generalization
    against each of its system's sampler sets (by sampler name).
    """
    system_name, truth, model, cfg, si, mi, sampler_sets = payload
    started = time.perf_counter()
    try:
        if isinstance(model, SamplerModel):
            block, v_hat_s = _sampler_block(truth, model, cfg, si, mi)
        else:
            block, v_hat_s = _net_block(truth, model, cfg, sampler_sets), None
    except GenmineError as exc:
        raise GenmineError(f"system {system_name!r}, model {model.name!r}: {exc}") from exc
    if cfg.include_timing:
        block["elapsed_s"] = time.perf_counter() - started
    return block, v_hat_s


def run_experiment(
    systems: Sequence[tuple[str, PetriNet | SystemTruth]],
    models: Sequence[ModelSpec],
    cfg: ExperimentConfig = ExperimentConfig(),
) -> dict:
    """Run every model against every system and assemble the report dict."""
    if not systems:
        raise InvalidInputError("run_experiment requires at least one system")
    if not models:
        raise InvalidInputError("run_experiment requires at least one model")
    names = [m.name for m in models]
    if len(set(names)) != len(names):
        raise InvalidInputError("model names must be unique")

    truths = [_prepare_system(system, cfg, si) for si, (_, system) in enumerate(systems)]
    # Sampler cells run first: each net cell needs its system's sampler sets.
    phases = [
        [mi for mi, m in enumerate(models) if isinstance(m, SamplerModel)],
        [mi for mi, m in enumerate(models) if not isinstance(m, SamplerModel)],
    ]
    blocks: list[list] = [[None] * len(models) for _ in truths]  # per system, in model order
    sampler_sets: list[dict[str, frozenset[Variant]]] = [{} for _ in truths]
    # More workers than the larger phase has cells would only sit idle.
    workers = min(cfg.jobs, len(truths) * max(map(len, phases)))
    with ProcessPoolExecutor(max_workers=workers) if workers > 1 else nullcontext() as pool:
        run = map if pool is None else pool.map
        for phase in phases:
            cells = [(si, mi) for si in range(len(truths)) for mi in phase]
            payloads = [
                (systems[si][0], truths[si], models[mi], cfg, si, mi, sampler_sets[si])
                for si, mi in cells
            ]
            for (si, mi), (block, v_hat_s) in zip(cells, run(_run_cell, payloads)):
                blocks[si][mi] = block
                if v_hat_s is not None:
                    sampler_sets[si][models[mi].name] = v_hat_s

    return {
        "schema_version": SCHEMA_VERSION,
        "seed": cfg.seed,
        # jobs is execution machinery, not semantics: reports must be
        # byte-identical regardless of the worker count.
        "config": {
            "split_ratio": cfg.split_ratio,
            "token_cap": cfg.token_cap,
            "playout_budget": DEFAULT_BUDGET,
            "system_max_len": None,
        },
        "systems": [
            {
                "name": name,
                "counts": {
                    "n_system": len(truth.v_s),
                    "n_observed": len(truth.lplus),
                    "n_unobserved": len(truth.v_u),
                    "alphabet_size": len({a for v in truth.v_s for a in v}),
                    "max_len": max(len(v) for v in truth.v_s),
                },
                "models": model_blocks,
            }
            for (name, _), truth, model_blocks in zip(systems, truths, blocks)
        ],
        "paired_tests": _paired_tests(
            models, {m.name: [b[mi]["rates"]["s"] for b in blocks] for mi, m in enumerate(models)}
        ),
    }


def _paired_tests(models: Sequence[ModelSpec], s_by_model: Mapping[str, list[float]]) -> list:
    """Upper-tailed paired tests: does each sampler beat each net model on s?"""
    net_names = [m.name for m in models if not isinstance(m, SamplerModel)]
    sampler_names = [m.name for m in models if isinstance(m, SamplerModel)]
    out = []
    for net_name in net_names:
        for sampler_name in sampler_names:
            diffs = [
                s_samp - s_net
                for s_samp, s_net in zip(s_by_model[sampler_name], s_by_model[net_name])
            ]
            entry: dict = {"net": net_name, "sampler": sampler_name, "differences": diffs}
            if len(diffs) < 3:
                entry["note"] = "needs at least 3 systems"
            else:
                try:
                    entry.update(asdict(stats.normality_gate(diffs)))
                except DegenerateInputError as exc:
                    entry["note"] = f"degenerate differences: {exc}"
                except InvalidInputError as exc:
                    entry["note"] = f"gate not applicable: {exc}"
            out.append(entry)
    return out
