"""End-to-end controlled experiment runner.

For each ground-truth system: play out its variant set (or accept a
pre-split truth), hold out the unobserved share, and score every requested
model against the truth.  Each (system, model) cell does all of that
model's work.  A sampler cell trains the built-in generator on the
observed variants and estimates the system set naively or via
Metropolis-Hastings (:func:`estimate`).  A net cell builds its net once,
plays it out up to the length of the longest observed variant, and scores
its generalization against every sampler's estimated variant set of the
same system.  Sampler cells therefore run first and net cells second,
both through the same executor.

Reports are plain dicts ready for JSON: all randomness is derived from
(seed, system index, model index), every set is serialized sorted, and
wall-clock timing is only included on request, so a fixed seed yields
byte-identical reports regardless of the worker count.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from typing import Mapping, Sequence, Union

import numpy as np

from . import conformance, genmodel, metrics, petri, sampling, stats
from .errors import DegenerateInputError, GenmineError, InvalidInputError
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
            if getattr(self, name) < 1:
                raise InvalidInputError(f"{name} must be >= 1")


ModelSpec = Union[NetModel, BaselineModel, SamplerModel]


@dataclass(frozen=True)
class ExperimentConfig:
    seed: int = 0
    split_ratio: float = 0.7
    token_cap: int = DEFAULT_TOKEN_CAP
    jobs: int = 1
    include_timing: bool = False

    def __post_init__(self):
        if self.jobs < 1:
            raise InvalidInputError(f"jobs must be >= 1, got {self.jobs}")
        if self.token_cap < 1:
            raise InvalidInputError(f"token_cap must be >= 1, got {self.token_cap}")
        if not 0.0 < self.split_ratio < 1.0:
            raise InvalidInputError(f"split_ratio must be in (0,1), got {self.split_ratio}")


def _task_seed(seed: int, system_index: int, model_index: int) -> int:
    return (seed * 1_000_003 + system_index * 10_007 + model_index * 101 + 13) % (2**31 - 1)


@dataclass(frozen=True)
class _SystemContext:
    name: str
    truth: SystemTruth
    mu: int
    alphabet_size: int


def _prepare_system(
    name: str,
    system: PetriNet | SystemTruth,
    cfg: ExperimentConfig,
    system_index: int,
) -> _SystemContext:
    if isinstance(system, SystemTruth):
        truth = system
    else:
        v_s = petri.playout_enumerate(system, max_len=None, token_cap=cfg.token_cap)
        truth = metrics.split_system(v_s, cfg.split_ratio, _task_seed(cfg.seed, system_index, 0))
    mu = max(len(v) for v in truth.lplus)
    alphabet_size = len({a for v in truth.v_s for a in v})
    return _SystemContext(name=name, truth=truth, mu=mu, alphabet_size=alphabet_size)


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


def _run_cell(payload: tuple) -> tuple[dict, frozenset[Variant] | None]:
    """Evaluate one (system, model) cell; a pure function of its payload.

    A sampler cell returns its report block and its estimated variant set.
    A net cell scores its net's generalization against each of its system's
    sampler sets (by sampler name) and returns its block and no set.
    """
    ctx, model, cfg, si, mi, sampler_sets = payload
    truth = ctx.truth
    started = time.perf_counter()
    try:
        if isinstance(model, SamplerModel):
            tcfg = replace(model.train_config, seed=_task_seed(cfg.seed, si, mi))
            result = genmodel.train_and_select(truth.lplus, tcfg)
            rng = np.random.default_rng([cfg.seed, si, mi, 2])
            sample = estimate(model, result, rng, tcfg.temperature)
            report = metrics.compute_rates(
                sample.v_hat_s,
                truth.v_s,
                truth.lplus.as_set(),
                truth.v_u,
                lplus_e=result.holdout.as_set(),
            )
            block = {
                "name": model.name,
                "kind": "sampler",
                "counts": report.counts_dict(),
                "rates": report.rates_dict(),
                "sampler_meta": {
                    "mode": model.mode,
                    "draws": sample.draw_count,
                    "acceptance_rate": sample.acceptance_rate,
                    "selected_round": result.selected_round,
                    "candidates": [
                        {"round": c.round_index, "tp_e": c.tp_e, "sample_count": c.sample_count}
                        for c in result.candidates
                    ],
                    "train_seed": tcfg.seed,
                },
                "elapsed_s": time.perf_counter() - started,
            }
            return block, sample.v_hat_s
        if isinstance(model, NetModel):
            net = model.net
        elif model.kind == "trace":
            net = petri.trace_model(truth.lplus)
        elif model.kind == "flower":
            net = petri.flower_model({a for v in truth.lplus for a in v})
        else:
            net = petri.dfg_discover(truth.lplus)
        v_hat = petri.playout_enumerate(net, max_len=ctx.mu, token_cap=cfg.token_cap)
        report = metrics.compute_rates(v_hat, truth.v_s, truth.lplus.as_set(), truth.v_u)
        block = {
            "name": model.name,
            "kind": "net",
            "counts": report.counts_dict(),
            "rates": report.rates_dict(),
        }
        per_sampler = {}
        for sampler_name, variants in sorted(sampler_sets.items()):
            if variants:
                res = conformance.model_generalization(net, variants)
                per_sampler[sampler_name] = {
                    "generalization": res.generalization,
                    "fitness": res.scores.fitness,
                    "precision": res.scores.precision,
                }
            else:
                per_sampler[sampler_name] = {
                    "generalization": 0.0,
                    "fitness": 0.0,
                    "precision": 0.0,
                    "note": "empty estimated variant set",
                }
        if per_sampler:
            gens = [v["generalization"] for v in per_sampler.values()]
            block["generalization"] = {"per_sampler": per_sampler, "mean": sum(gens) / len(gens)}
        block["elapsed_s"] = time.perf_counter() - started
        return block, None
    except GenmineError as exc:
        raise GenmineError(f"system {ctx.name!r}, model {model.name!r}: {exc}") from exc


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

    contexts = [
        _prepare_system(name, system, cfg, si) for si, (name, system) in enumerate(systems)
    ]
    # Sampler cells run first: each net cell needs its system's sampler sets.
    cells = [(si, mi) for si in range(len(contexts)) for mi in range(len(models))]
    phases = [
        [(si, mi) for si, mi in cells if isinstance(models[mi], SamplerModel)],
        [(si, mi) for si, mi in cells if not isinstance(models[mi], SamplerModel)],
    ]
    sampler_sets: list[dict[str, frozenset[Variant]]] = [{} for _ in contexts]
    blocks: dict[tuple[int, int], dict] = {}
    with ProcessPoolExecutor(max_workers=cfg.jobs) if cfg.jobs > 1 else nullcontext() as pool:
        run = map if pool is None else pool.map
        for phase in phases:
            payloads = [
                (contexts[si], models[mi], cfg, si, mi, sampler_sets[si]) for si, mi in phase
            ]
            for (si, mi), (block, v_hat_s) in zip(phase, run(_run_cell, payloads)):
                blocks[si, mi] = block
                if v_hat_s is not None:
                    sampler_sets[si][models[mi].name] = v_hat_s

    report_systems = []
    s_by_model: dict[str, list[float]] = {name: [] for name in names}
    for si, ctx in enumerate(contexts):
        model_blocks = [blocks[si, mi] for mi in range(len(models))]
        for block in model_blocks:
            if not cfg.include_timing:
                del block["elapsed_s"]
            s_by_model[block["name"]].append(block["rates"]["s"])
        report_systems.append(
            {
                "name": ctx.name,
                "counts": {
                    "n_system": len(ctx.truth.v_s),
                    "n_observed": len(ctx.truth.lplus),
                    "n_unobserved": len(ctx.truth.v_u),
                    "alphabet_size": ctx.alphabet_size,
                    "max_len": ctx.mu,
                },
                "models": model_blocks,
            }
        )

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
        "systems": report_systems,
        "paired_tests": _paired_tests(models, s_by_model),
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
                    gate = stats.normality_gate(diffs)
                    entry.update(
                        {
                            "method": gate.method,
                            "statistic": gate.statistic,
                            "p_value": gate.p_value,
                            "shapiro_w": gate.shapiro_w,
                            "shapiro_p": gate.shapiro_p,
                        }
                    )
                except DegenerateInputError as exc:
                    entry["note"] = f"degenerate differences: {exc}"
                except InvalidInputError as exc:
                    entry["note"] = f"gate not applicable: {exc}"
            out.append(entry)
    return out
