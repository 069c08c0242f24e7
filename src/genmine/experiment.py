"""End-to-end controlled experiment runner.

For each ground-truth system: play out its variant set (or accept a
pre-split truth), hold out the unobserved share, and score every requested
model against the truth.  Net models are played out up to the length of
the longest observed variant; sampler models train the built-in
generator on the observed variants and estimate the system set naively or
via Metropolis-Hastings.  Each net model additionally receives a
generalization score against every sampler's estimated variant set.

Reports are plain dicts ready for JSON: all randomness is derived from
(seed, system index, model index), every set is serialized sorted, and
wall-clock timing is only included on request, so a fixed seed yields
byte-identical reports regardless of the worker count.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Mapping, Sequence, Union

import numpy as np

from . import conformance, genmodel, metrics, petri, sampling, stats
from .errors import DegenerateInputError, GenmineError, InvalidInputError
from .genmodel import TrainConfig
from .metrics import SystemTruth
from .petri import DEFAULT_BUDGET, PetriNet

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


ModelSpec = Union[NetModel, BaselineModel, SamplerModel]


@dataclass(frozen=True)
class ExperimentConfig:
    seed: int = 0
    split_ratio: float = 0.7
    token_cap: int = 3
    playout_budget: int = DEFAULT_BUDGET
    system_max_len: int | None = None
    jobs: int = 1
    include_timing: bool = False


def _task_seed(seed: int, system_index: int, model_index: int) -> int:
    return (seed * 1_000_003 + system_index * 10_007 + model_index * 101 + 13) % (2**31 - 1)


@dataclass(frozen=True)
class _SystemContext:
    name: str
    truth: SystemTruth
    mu: int
    alphabet: tuple[str, ...]


def _prepare_system(
    name: str,
    system: PetriNet | SystemTruth,
    cfg: ExperimentConfig,
    system_index: int,
) -> _SystemContext:
    if isinstance(system, SystemTruth):
        truth = system
    else:
        v_s = petri.playout_enumerate(
            system,
            max_len=cfg.system_max_len,
            token_cap=cfg.token_cap,
            budget=cfg.playout_budget,
        )
        truth = metrics.split_system(v_s, cfg.split_ratio, _task_seed(cfg.seed, system_index, 0))
    mu = max(len(v) for v in truth.lplus)
    alphabet = tuple(sorted({a for v in truth.v_s for a in v}))
    return _SystemContext(name=name, truth=truth, mu=mu, alphabet=alphabet)


def _materialize_net(model: ModelSpec, ctx: _SystemContext) -> PetriNet | None:
    if isinstance(model, NetModel):
        return model.net
    if isinstance(model, BaselineModel):
        if model.kind == "trace":
            return petri.trace_model(ctx.truth.lplus)
        if model.kind == "flower":
            return petri.flower_model(ctx.alphabet)
        return petri.dfg_discover(ctx.truth.lplus)
    return None


def _run_model_task(payload: tuple) -> dict:
    """Evaluate one (system, model) cell; pure function of its payload."""
    ctx, model, cfg, si, mi = payload
    truth = ctx.truth
    started = time.perf_counter()
    try:
        net = _materialize_net(model, ctx)
        if net is not None:
            v_hat = petri.playout_enumerate(
                net, max_len=ctx.mu, token_cap=cfg.token_cap, budget=cfg.playout_budget
            )
            report = metrics.compute_rates(v_hat, truth.v_s, truth.lplus.as_set(), truth.v_u)
            return {
                "name": model.name,
                "kind": "net",
                "counts": report.counts_dict(),
                "rates": report.rates_dict(),
                "elapsed_s": time.perf_counter() - started,
            }
        assert isinstance(model, SamplerModel)
        tcfg = replace(model.train_config, seed=_task_seed(cfg.seed, si, mi))
        result = genmodel.train_and_select(truth.lplus, tcfg)
        draw = lambda r: genmodel.sample_variant(result.generator, tcfg.temperature, r)
        rng = np.random.default_rng([cfg.seed, si, mi, 2])
        if model.mode == "naive":
            sample = sampling.naive_sample(
                draw, truth.lplus, model.k, rng, union_observed=model.union_observed
            )
        else:
            sample = sampling.mh_sample(
                draw,
                lambda v: genmodel.score(result.d_p, v),
                truth.lplus,
                result.holdout,
                patience=model.patience,
                kappa=model.kappa,
                rng=rng,
                strict_pseudocode=model.strict_pseudocode,
            )
        report = metrics.compute_rates(
            sample.v_hat_s,
            truth.v_s,
            truth.lplus.as_set(),
            truth.v_u,
            lplus_e=result.holdout.as_set(),
        )
        return {
            "name": model.name,
            "kind": "sampler",
            "v_hat_s": sorted(sample.v_hat_s),
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
    except GenmineError as exc:
        raise GenmineError(
            f"system {ctx.name!r}, model {model.name!r}: {exc}"
        ) from exc


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
    payloads = [
        (ctx, model, cfg, si, mi)
        for si, ctx in enumerate(contexts)
        for mi, model in enumerate(models)
    ]
    if cfg.jobs > 1:
        with ProcessPoolExecutor(max_workers=cfg.jobs) as pool:
            cell_results = list(pool.map(_run_model_task, payloads))
    else:
        cell_results = [_run_model_task(p) for p in payloads]

    n_models = len(models)
    report_systems = []
    s_by_model: dict[str, list[float]] = {m.name: [] for m in models}
    for si, ctx in enumerate(contexts):
        cells = cell_results[si * n_models : (si + 1) * n_models]
        sampler_sets = {
            c["name"]: c.pop("v_hat_s") for c in cells if c["kind"] == "sampler"
        }
        model_blocks = []
        for c in cells:
            block = dict(c)
            if not cfg.include_timing:
                block.pop("elapsed_s", None)
            if block["kind"] == "net":
                per_sampler = {}
                if any(sampler_sets.values()):
                    net = _materialize_net(models[names.index(block["name"])], ctx)
                for sampler_name, variants in sorted(sampler_sets.items()):
                    if variants:
                        res = conformance.model_generalization(net, [tuple(v) for v in variants])
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
                    block["generalization"] = {
                        "per_sampler": per_sampler,
                        "mean": sum(gens) / len(gens),
                    }
            s_by_model[block["name"]].append(block["rates"]["s"])
            model_blocks.append(block)
        report_systems.append(
            {
                "name": ctx.name,
                "counts": {
                    "n_system": len(ctx.truth.v_s),
                    "n_observed": len(ctx.truth.lplus),
                    "n_unobserved": len(ctx.truth.v_u),
                    "alphabet_size": len(ctx.alphabet),
                    "max_len": ctx.mu,
                },
                "models": model_blocks,
            }
        )

    paired = _paired_tests(models, s_by_model)
    report = {
        "schema_version": SCHEMA_VERSION,
        "seed": cfg.seed,
        # jobs is execution machinery, not semantics: reports must be
        # byte-identical regardless of the worker count.
        "config": {
            "split_ratio": cfg.split_ratio,
            "token_cap": cfg.token_cap,
            "playout_budget": cfg.playout_budget,
            "system_max_len": cfg.system_max_len,
        },
        "systems": report_systems,
        "paired_tests": paired,
    }
    return report


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
