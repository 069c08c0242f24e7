"""Command-line surface for batch use.

Every subcommand is a thin wrapper over the library: it parses arguments,
calls the corresponding functions, writes artifacts to disk, and prints a
small JSON summary (or a human-readable block with ``--pretty``).

Exit codes: 0 on success, 1 on domain errors, 2 on usage errors.  With
``--error-json`` domain errors are printed as machine-readable JSON.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import conformance, experiment, genmodel, logs, metrics, petri, sampling, systems
from .errors import GenmineError

JSON_KW = {"indent": 2, "sort_keys": True}


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


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--pretty", action="store_true", help="human-readable summary output")


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
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("playout", help="enumerate the variants a net can play out")
    p.add_argument("--net", required=True, help="net JSON file")
    p.add_argument("--max-len", type=int, required=True)
    p.add_argument("--token-cap", type=int, default=petri.DEFAULT_TOKEN_CAP)
    p.add_argument("--budget", type=int, default=petri.DEFAULT_BUDGET)
    p.add_argument("--out", required=True, help="variant TSV output")
    _add_common(p)

    p = sub.add_parser("discover-dfg", help="mine the directly-follows baseline net")
    p.add_argument("--log", required=True, help="event log CSV")
    p.add_argument("--out", required=True, help="net JSON output")
    _add_common(p)

    p = sub.add_parser("conformance", help="fitness/precision of a net against a log")
    p.add_argument("--net", required=True)
    p.add_argument("--log", required=True)
    p.add_argument("--out", help="scores JSON output")
    _add_common(p)

    p = sub.add_parser("train", help="train the built-in sampler on an event log")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--log", help="event log CSV")
    src.add_argument("--variants", help="variant TSV (already deduplicated)")
    p.add_argument("--out", required=True, help="model checkpoint JSON")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--order", type=int, default=3)
    p.add_argument("--smoothing", type=float, default=0.1)
    p.add_argument("--rounds", type=int, default=5)
    p.add_argument("--temperature", type=float, default=1.0)
    p.add_argument("--holdout-fraction", type=float, default=0.9)
    p.add_argument("--select-sample-size", type=int, default=10_000)
    p.add_argument("--round-samples", type=int, default=2000)
    _add_common(p)

    p = sub.add_parser("sample", help="estimate system variants from a trained model")
    p.add_argument("--model", required=True, help="model checkpoint JSON")
    p.add_argument("--mode", choices=("naive", "mh"), default="naive")
    p.add_argument("--k", type=int, default=sampling.DEFAULT_NAIVE_DRAWS)
    p.add_argument("--kappa", type=int, default=sampling.DEFAULT_CHAIN_LENGTH)
    p.add_argument("--patience", type=int, default=sampling.DEFAULT_PATIENCE)
    p.add_argument("--temperature", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--strict-pseudocode", action="store_true")
    p.add_argument("--union-observed", action="store_true")
    p.add_argument("--out", required=True, help="variant TSV output")
    p.add_argument("--meta", help="sampling metadata JSON output")
    _add_common(p)

    p = sub.add_parser("metrics", help="true-positive rates of an estimated variant set")
    p.add_argument("--sampled", required=True, help="estimated variants TSV")
    p.add_argument("--system", required=True, help="system variants TSV")
    p.add_argument("--observed", required=True, help="observed variants TSV")
    p.add_argument("--unobserved", required=True, help="unobserved variants TSV")
    p.add_argument("--holdout", help="holdout variants TSV")
    p.add_argument("--out", help="report JSON output")
    _add_common(p)

    p = sub.add_parser("gen-system", help="build a seeded block-structured ground truth")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--depth", type=int, default=3)
    p.add_argument("--alphabet-budget", type=int, default=24)
    p.add_argument("--loop-unroll", type=int, default=2)
    p.add_argument("--fanout-min", type=int, default=2)
    p.add_argument("--fanout-max", type=int, default=3)
    p.add_argument("--weights", type=_weights_arg, default=None,
                   help="e.g. seq=1,xor=1,and=0.4,loop=0.2")
    p.add_argument("--silent-skip", action="store_true")
    p.add_argument("--duplicate-label", action="store_true")
    p.add_argument("--out", required=True, help="net JSON output")
    p.add_argument("--profile", action="store_true",
                   help="also print alphabet size, max length, variant count")
    _add_common(p)

    p = sub.add_parser("experiment", help="full controlled experiment over systems and models")
    p.add_argument("--system", action="append", default=[], help="system net JSON (repeatable)")
    p.add_argument("--gen-system-seed", action="append", type=int, default=[],
                   help="build a ground truth from this seed (repeatable)")
    p.add_argument("--gen-system-depth", type=int, default=3)
    p.add_argument("--baseline", action="append", choices=experiment.BASELINE_KINDS,
                   default=[], help="per-system baseline net (repeatable)")
    p.add_argument("--sampler", action="append", choices=("naive", "mh"), default=[],
                   help="built-in sampler mode (repeatable)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--ratio", type=float, default=0.7)
    p.add_argument("--token-cap", type=int, default=petri.DEFAULT_TOKEN_CAP)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--k", type=int, default=sampling.DEFAULT_NAIVE_DRAWS)
    p.add_argument("--kappa", type=int, default=sampling.DEFAULT_CHAIN_LENGTH)
    p.add_argument("--patience", type=int, default=sampling.DEFAULT_PATIENCE)
    p.add_argument("--rounds", type=int, default=5)
    p.add_argument("--temperature", type=float, default=1.0)
    p.add_argument("--strict-pseudocode", action="store_true")
    p.add_argument("--union-observed", action="store_true")
    p.add_argument("--timing", action="store_true", help="include wall-clock timing")
    p.add_argument("--out", required=True, help="report JSON output")
    _add_common(p)

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
    fitness = conformance.token_replay_fitness(net, lstar)
    precision = conformance.etc_precision(net, lstar)
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
    variants = logs.read_variants_tsv(args.variants)
    seen: dict[logs.Variant, None] = {}
    for v in variants:
        seen.setdefault(v)
    return logs.UniqueVariantLog(tuple(seen))


def _cmd_train(args) -> dict:
    lplus = _load_lplus(args)
    cfg = genmodel.TrainConfig(
        seed=args.seed,
        order=args.order,
        smoothing=args.smoothing,
        rounds=args.rounds,
        temperature=args.temperature,
        holdout_fraction=args.holdout_fraction,
        select_sample_size=args.select_sample_size,
        round_samples=args.round_samples,
    )
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
    lplus = logs.UniqueVariantLog(result.train.variants + result.holdout.variants)
    rng = np.random.default_rng(args.seed)
    draw = lambda r: genmodel.sample_variant(result.generator, args.temperature, r)
    if args.mode == "naive":
        sample = sampling.naive_sample(
            draw, lplus, args.k, rng, union_observed=args.union_observed
        )
    else:
        sample = sampling.mh_sample(
            draw,
            lambda v: genmodel.score(result.d_p, v),
            lplus,
            result.holdout,
            patience=args.patience,
            kappa=args.kappa,
            rng=rng,
            strict_pseudocode=args.strict_pseudocode,
        )
    logs.write_variants_tsv(sample.v_hat_s, args.out)
    meta = {
        "mode": args.mode,
        "seed": args.seed,
        "draws": sample.draw_count,
        "acceptance_rate": sample.acceptance_rate,
        "estimated_variants": len(sample.v_hat_s),
        "estimated_unobserved": len(sample.v_hat_u),
        "strict_pseudocode": args.strict_pseudocode,
        "union_observed": args.union_observed,
        "kappa": args.kappa if args.mode == "mh" else None,
        "patience": args.patience if args.mode == "mh" else None,
        "k": args.k if args.mode == "naive" else None,
        "temperature": args.temperature,
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
    kwargs = dict(
        seed=args.seed,
        depth=args.depth,
        alphabet_budget=args.alphabet_budget,
        loop_unroll=args.loop_unroll,
        fanout_min=args.fanout_min,
        fanout_max=args.fanout_max,
        silent_skip=args.silent_skip,
        duplicate_label=args.duplicate_label,
    )
    if args.weights is not None:
        kwargs["weights"] = args.weights
    spec = systems.SystemSpec(**kwargs)
    net = systems.build_system(spec)
    petri.save_net(net, args.out)
    summary = {"places": len(net.places), "transitions": len(net.transitions), "out": args.out}
    if args.profile:
        profile = systems.complexity_profile(net)
        summary.update(
            {
                "alphabet_size": profile.alphabet_size,
                "max_variant_len": profile.max_variant_len,
                "variant_count": profile.variant_count,
            }
        )
    return summary


def _cmd_experiment(args) -> dict:
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
    for mode in args.sampler:
        models.append(
            experiment.SamplerModel(
                name=f"sampler_{mode}",
                mode=mode,
                train_config=tcfg,
                k=args.k,
                kappa=args.kappa,
                patience=args.patience,
                strict_pseudocode=args.strict_pseudocode,
                union_observed=args.union_observed,
            )
        )
    cfg = experiment.ExperimentConfig(
        seed=args.seed,
        split_ratio=args.ratio,
        token_cap=args.token_cap,
        jobs=args.jobs,
        include_timing=args.timing,
    )
    report = experiment.run_experiment(sys_list, models, cfg)
    _dump(report, args.out)
    return {
        "systems": len(sys_list),
        "models": len(models),
        "out": args.out,
    }


_COMMANDS = {
    "playout": _cmd_playout,
    "discover-dfg": _cmd_discover_dfg,
    "conformance": _cmd_conformance,
    "train": _cmd_train,
    "sample": _cmd_sample,
    "metrics": _cmd_metrics,
    "gen-system": _cmd_gen_system,
    "experiment": _cmd_experiment,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        summary = _COMMANDS[args.command](args)
    except (GenmineError, OSError) as exc:
        if args.error_json:
            print(
                json.dumps({"error": {"type": type(exc).__name__, "message": str(exc)}}),
                file=sys.stderr,
            )
        else:
            print(f"error: {exc}", file=sys.stderr)
        return 1
    _emit(summary, getattr(args, "pretty", False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
