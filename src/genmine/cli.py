"""Command-line surface for batch use.

Every subcommand is a thin wrapper over the library: it parses arguments,
calls the corresponding functions, writes artifacts to disk, and prints a
small JSON summary (or a human-readable block with ``--pretty``).

Exit codes: 0 on success, 1 on domain errors, 2 on usage errors.  With
``--error-json`` domain errors are printed as machine-readable JSON: the
error's type and message, and a ``BudgetExceededError``'s
``partial_count``.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, fields
from pathlib import Path
from typing import get_type_hints

import numpy as np

from . import conformance, experiment, genmodel, logs, metrics, petri, systems
from .errors import BudgetExceededError, GenmineError, check_count

JSON_KW = {"indent": 2, "sort_keys": True}

# The dataclass fields each command exposes as ``--field-name`` flags.
TRAIN_FIELDS = tuple(f.name for f in fields(genmodel.TrainConfig))
SAMPLER_FIELDS = ("k", "kappa", "patience", "strict_pseudocode", "union_observed")
SYSTEM_FIELDS = ("depth", "alphabet_budget", "loop_unroll", "fanout_min", "fanout_max",
                 "silent_skip", "duplicate_label")
EXPERIMENT_FIELDS = ("seed", "token_cap", "jobs")


def _dump(obj, path: str | None) -> str:
    text = json.dumps(obj, **JSON_KW) + "\n"
    if path:
        Path(path).write_text(text)
    return text


def _emit(summary: dict, pretty: bool) -> None:
    if pretty:
        for key, value in summary.items():
            print(f"{key}: {value}")
    else:
        print(json.dumps(summary, **JSON_KW))


def _add_fields(p: argparse.ArgumentParser, cls: type, names: tuple[str, ...]) -> None:
    """One ``--field-name`` flag per named field of ``cls``, in field order.

    The flag takes its type and default from the dataclass; a boolean field
    (every exposed one defaults to False) becomes a ``store_true`` switch.
    """
    hints = get_type_hints(cls)
    for f in fields(cls):
        if f.name not in names:
            continue
        flag = "--" + f.name.replace("_", "-")
        if hints[f.name] is bool:
            p.add_argument(flag, action="store_true")
        else:
            p.add_argument(flag, type=hints[f.name], default=f.default)


def _field_kwargs(args, names: tuple[str, ...]) -> dict:
    """The parsed values of the flags `_add_fields` added, as constructor kwargs."""
    return {name: getattr(args, name) for name in names}


def _sampler_model(args, mode: str, train_config: genmodel.TrainConfig) -> experiment.SamplerModel:
    return experiment.SamplerModel(
        name=f"sampler_{mode}", mode=mode, train_config=train_config,
        **_field_kwargs(args, SAMPLER_FIELDS),
    )


def _weights_arg(text: str) -> dict[str, float]:
    weights = {}
    for part in text.split(","):
        key, _, value = part.partition("=")
        if not value:
            raise argparse.ArgumentTypeError(f"expected op=weight, got {part!r}")
        weights[key.strip()] = float(value)
    return weights


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="genmine",
        description="Estimate a system's variant set from an event log and "
        "score process models against it.",
    )
    parser.add_argument(
        "--error-json", action="store_true", help="print domain errors as JSON"
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--pretty", action="store_true", help="human-readable summary output")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, run, help: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, parents=[common], help=help)
        p.set_defaults(run=run)
        return p

    p = command("playout", _cmd_playout, "enumerate the variants a net can play out")
    p.add_argument("--net", required=True, help="net JSON file")
    p.add_argument("--max-len", type=int, required=True)
    p.add_argument("--token-cap", type=int, default=petri.DEFAULT_TOKEN_CAP)
    p.add_argument("--budget", type=int, default=petri.DEFAULT_BUDGET)
    p.add_argument("--out", required=True, help="variant TSV output")

    p = command("discover-dfg", _cmd_discover_dfg, "mine the directly-follows baseline net")
    p.add_argument("--log", required=True, help="event log CSV")
    p.add_argument("--out", required=True, help="net JSON output")

    p = command("conformance", _cmd_conformance, "fitness/precision of a net against a log")
    p.add_argument("--net", required=True)
    p.add_argument("--log", required=True)
    p.add_argument("--out", help="scores JSON output")

    p = command("train", _cmd_train, "train the built-in sampler on an event log")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--log", help="event log CSV")
    src.add_argument("--variants", help="variant TSV; a repeated line counts once")
    p.add_argument("--out", required=True, help="model checkpoint JSON")
    _add_fields(p, genmodel.TrainConfig, TRAIN_FIELDS)

    p = command("sample", _cmd_sample, "estimate system variants from a trained model")
    p.add_argument("--model", required=True, help="model checkpoint JSON")
    p.add_argument("--mode", choices=("naive", "mh"), default="naive")
    _add_fields(p, experiment.SamplerModel, SAMPLER_FIELDS)
    p.add_argument("--temperature", type=float, default=None,
                   help="draw temperature (default: the checkpoint's training temperature)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="variant TSV output")
    p.add_argument("--meta", help="sampling metadata JSON output")

    p = command("metrics", _cmd_metrics, "true-positive rates of an estimated variant set")
    p.add_argument("--sampled", required=True, help="estimated variants TSV")
    p.add_argument("--system", required=True, help="system variants TSV")
    p.add_argument("--observed", required=True, help="observed variants TSV")
    p.add_argument("--unobserved", required=True, help="unobserved variants TSV")
    p.add_argument("--holdout", help="holdout variants TSV")
    p.add_argument("--out", help="report JSON output")

    p = command("gen-system", _cmd_gen_system, "build a seeded block-structured ground truth")
    p.add_argument("--seed", type=int, required=True)
    _add_fields(p, systems.SystemSpec, SYSTEM_FIELDS)
    p.add_argument("--weights", type=_weights_arg, default=None,
                   help="e.g. seq=1,xor=1,and=0.4,loop=0.2")
    p.add_argument("--out", required=True, help="net JSON output")
    p.add_argument("--profile", action="store_true",
                   help="also print alphabet size, max length, variant count")

    p = command("experiment", _cmd_experiment,
                "full controlled experiment over systems and models")
    p.add_argument("--system", action="append", default=[], help="system net JSON (repeatable)")
    p.add_argument("--gen-system-seed", action="append", type=int, default=[],
                   help="build a ground truth from this seed (repeatable)")
    p.add_argument("--gen-system-depth", type=int, default=systems.SystemSpec.depth)
    p.add_argument("--baseline", action="append", choices=experiment.BASELINE_KINDS,
                   default=[], help="per-system baseline net (repeatable)")
    p.add_argument("--sampler", action="append", choices=("naive", "mh"), default=[],
                   help="built-in sampler mode (repeatable)")
    _add_fields(p, experiment.ExperimentConfig, EXPERIMENT_FIELDS)
    p.add_argument("--ratio", type=float, default=experiment.ExperimentConfig.split_ratio)
    _add_fields(p, experiment.SamplerModel, SAMPLER_FIELDS)
    _add_fields(p, genmodel.TrainConfig, ("rounds", "temperature"))
    p.add_argument("--timing", action="store_true", help="include wall-clock timing")
    p.add_argument("--out", required=True, help="report JSON output")

    return parser


def _cmd_playout(args) -> dict:
    net = petri.load_net(args.net)
    variants = petri.playout_enumerate(
        net, max_len=args.max_len, token_cap=args.token_cap, budget=args.budget
    )
    logs.write_variants_tsv(variants, args.out)
    return {"variants": len(variants), "out": args.out}


def _cmd_discover_dfg(args) -> dict:
    log = logs.read_event_log_csv(args.log)
    lstar, _ = logs.build_variant_logs(log)
    net = petri.dfg_discover(lstar)
    petri.save_net(net, args.out)
    return {"places": len(net.places), "transitions": len(net.transitions), "out": args.out}


def _cmd_conformance(args) -> dict:
    net = petri.load_net(args.net)
    log = logs.read_event_log_csv(args.log)
    lstar, _ = logs.build_variant_logs(log)
    log_scores = conformance.score_log(net, lstar)
    fitness, precision = log_scores.fitness, log_scores.precision
    scores = {
        "fitness": fitness,
        "precision": precision,
        "generalization": conformance.generalization_score(fitness, precision),
        "fitness_method": "token_replay",
        "precision_method": "escaping_edges",
    }
    if args.out:
        _dump(scores, args.out)
    return scores


def _load_lplus(args) -> logs.UniqueVariantLog:
    if args.log:
        log = logs.read_event_log_csv(args.log)
        _, lplus = logs.build_variant_logs(log)
        return lplus
    return logs.unique_variants(logs.read_variants_tsv(args.variants))


def _cmd_train(args) -> dict:
    lplus = _load_lplus(args)
    cfg = genmodel.TrainConfig(**_field_kwargs(args, TRAIN_FIELDS))
    result = genmodel.train_and_select(lplus, cfg)
    genmodel.save_checkpoint(result, args.out)
    best = max(c.tp_e for c in result.candidates)
    return {
        "observed_variants": len(lplus),
        "selected_round": result.selected_round,
        "tp_e": best,
        "out": args.out,
    }


def _cmd_sample(args) -> dict:
    result = genmodel.load_checkpoint(args.model)
    temperature = result.config.temperature if args.temperature is None else args.temperature
    model = _sampler_model(args, args.mode, result.config)
    check_count("seed", args.seed, minimum=0)
    rng = np.random.default_rng(args.seed)
    sample = experiment.estimate(model, result, rng, temperature)
    logs.write_variants_tsv(sample.v_hat_s, args.out)
    meta = {
        "mode": model.mode,
        "seed": args.seed,
        "draws": sample.draw_count,
        "acceptance_rate": sample.acceptance_rate,
        "estimated_variants": len(sample.v_hat_s),
        "estimated_unobserved": len(sample.v_hat_u),
        "strict_pseudocode": model.strict_pseudocode if model.mode == "mh" else None,
        "union_observed": model.union_observed,
        "kappa": model.kappa if model.mode == "mh" else None,
        "patience": model.patience if model.mode == "mh" else None,
        "k": model.k if model.mode == "naive" else None,
        "temperature": temperature,
    }
    if args.meta:
        _dump(meta, args.meta)
    return {"variants": len(sample.v_hat_s), "out": args.out}


def _cmd_metrics(args) -> dict:
    report = metrics.compute_rates(
        logs.read_variants_tsv(args.sampled),
        logs.read_variants_tsv(args.system),
        logs.read_variants_tsv(args.observed),
        logs.read_variants_tsv(args.unobserved),
        lplus_e=logs.read_variants_tsv(args.holdout) if args.holdout else None,
    )
    payload = {"counts": report.counts_dict(), "rates": report.rates_dict()}
    if args.out:
        _dump(payload, args.out)
    return payload


def _cmd_gen_system(args) -> dict:
    kwargs = _field_kwargs(args, SYSTEM_FIELDS)
    if args.weights is not None:
        kwargs["weights"] = args.weights
    spec = systems.SystemSpec(seed=args.seed, **kwargs)
    net = systems.build_system(spec)
    petri.save_net(net, args.out)
    summary = {"places": len(net.places), "transitions": len(net.transitions), "out": args.out}
    if args.profile:
        summary.update(asdict(systems.complexity_profile(net)))
    return summary


def _cmd_experiment(args) -> dict:
    cfg = experiment.ExperimentConfig(
        split_ratio=args.ratio, include_timing=args.timing,
        **_field_kwargs(args, EXPERIMENT_FIELDS),
    )
    sys_list: list[tuple[str, petri.PetriNet]] = []
    for path in args.system:
        sys_list.append((Path(path).stem, petri.load_net(path)))
    for seed in args.gen_system_seed:
        spec = systems.SystemSpec(seed=seed, depth=args.gen_system_depth)
        sys_list.append((f"gen_{seed}", systems.build_system(spec)))
    models: list[experiment.ModelSpec] = []
    for kind in args.baseline:
        models.append(experiment.BaselineModel(name=kind, kind=kind))
    tcfg = genmodel.TrainConfig(rounds=args.rounds, temperature=args.temperature)
    models += [_sampler_model(args, mode, tcfg) for mode in args.sampler]
    report = experiment.run_experiment(sys_list, models, cfg)
    _dump(report, args.out)
    return {
        "systems": len(sys_list),
        "models": len(models),
        "out": args.out,
    }


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        summary = args.run(args)
    except (GenmineError, OSError) as exc:
        if args.error_json:
            error = {"type": type(exc).__name__, "message": str(exc)}
            if isinstance(exc, BudgetExceededError):
                error["partial_count"] = exc.partial_count
            print(json.dumps({"error": error}), file=sys.stderr)
        else:
            print(f"error: {exc}", file=sys.stderr)
        return 1
    _emit(summary, args.pretty)
    return 0


if __name__ == "__main__":
    sys.exit(main())
