"""The shared argument checks of `genmine.errors` and the one definition of
a variant (`logs.check_variants`), through the entry points that use them: a
bad seed, a non-number, a real value outside its unit interval or a malformed
variant is a domain error, never a bare `TypeError` or `ValueError`, and a
bool is neither a seed nor a real number."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from genmine import (
    ConformanceScores,
    ExperimentConfig,
    InvalidInputError,
    SystemTruth,
    TrainConfig,
    UniqueVariantLog,
    VariantLog,
    compute_rates,
    dfg_discover,
    etc_precision,
    fit_mle,
    flower_model,
    generalization_score,
    load_checkpoint,
    model_generalization,
    sample_variant,
    save_checkpoint,
    score_s,
    split_holdout,
    split_system,
    synth_event_log,
    token_replay_fitness,
    trace_model,
    train_and_select,
    write_variants_tsv,
)
from genmine.conformance import score_log
from genmine.logs import check_variants, unique_variants

VARIANTS = (("a",), ("b",), ("a", "b"), ("b", "a"))
LPLUS = UniqueVariantLog(VARIANTS)

SEEDED = {
    "split_system": lambda seed: split_system(VARIANTS, 0.5, seed),
    "split_holdout": lambda seed: split_holdout(LPLUS, 0.5, seed),
    "synth_event_log": lambda seed: synth_event_log(VARIANTS, seed),
}


@pytest.mark.parametrize("seed, message", [
    (1.5, "seed must be an integer, got 1.5"),
    (2.0, "seed must be an integer, got 2.0"),
    (-1, "seed must be >= 0"),
    (np.int64(-1), "seed must be >= 0"),
    (True, "seed must be an integer, got True"),
], ids=["fraction", "integral_float", "negative", "numpy_negative", "bool"])
@pytest.mark.parametrize("entry", list(SEEDED))
def test_bad_seed_is_a_domain_error(entry, seed, message):
    with pytest.raises(InvalidInputError) as info:
        SEEDED[entry](seed)
    assert str(info.value) == message


@pytest.mark.parametrize("entry", list(SEEDED))
def test_numpy_integer_seed_acts_as_its_int(entry):
    assert SEEDED[entry](np.int64(3)) == SEEDED[entry](3)


# entry point -> (the setting's name in the message, a call with the value in its place)
REAL_VALUED = {
    "ExperimentConfig.split_ratio": ("split_ratio", lambda x: ExperimentConfig(split_ratio=x)),
    "TrainConfig.temperature": ("temperature", lambda x: TrainConfig(temperature=x)),
    "TrainConfig.smoothing": ("smoothing", lambda x: TrainConfig(smoothing=x)),
    "TrainConfig.holdout_fraction": ("holdout_fraction",
                                     lambda x: TrainConfig(holdout_fraction=x)),
    "fit_mle": ("smoothing", lambda x: fit_mle(LPLUS, 2, x)),
    "sample_variant": ("temperature", lambda x: sample_variant(
        fit_mle(LPLUS, 2, 0.1), x, np.random.default_rng(0))),
    "split_system": ("ratio", lambda x: split_system(VARIANTS, x, 1)),
    "split_holdout": ("fraction", lambda x: split_holdout(LPLUS, x, 1)),
    "generalization_score": ("fit", lambda x: generalization_score(x, 0.5)),
    "score_s": ("tp", lambda x: score_s(x, 0.5)),
    "ConformanceScores": ("fitness", lambda x: ConformanceScores(fitness=x, precision=0.5)),
}


@pytest.mark.parametrize("value", ["0.5", None, True], ids=["str", "None", "bool"])
@pytest.mark.parametrize("entry", list(REAL_VALUED))
def test_non_number_is_a_domain_error(entry, value):
    name, call = REAL_VALUED[entry]
    with pytest.raises(InvalidInputError) as info:
        call(value)
    assert str(info.value) == f"{name} must be a real number, got {value!r}"


# entry point -> (the value's name in the message, its interval, a call with the value in its place)
UNIT_RANGED = {
    "ConformanceScores.fitness": ("fitness", "[0,1]",
                                  lambda x: ConformanceScores(fitness=x, precision=0.5)),
    "ConformanceScores.precision": ("precision", "[0,1]",
                                    lambda x: ConformanceScores(fitness=0.5, precision=x)),
    "generalization_score.fit": ("fit", "[0,1]", lambda x: generalization_score(x, 0.5)),
    "generalization_score.prec": ("prec", "[0,1]", lambda x: generalization_score(0.5, x)),
    "score_s.tp": ("tp", "[0,1]", lambda x: score_s(x, 0.5)),
    "score_s.tp_u": ("tp_u", "[0,1]", lambda x: score_s(0.5, x)),
    "split_system": ("ratio", "(0,1)", lambda x: split_system(VARIANTS, x, 1)),
    "split_holdout": ("fraction", "(0,1)", lambda x: split_holdout(LPLUS, x, 1)),
    "ExperimentConfig.split_ratio": ("split_ratio", "(0,1)",
                                     lambda x: ExperimentConfig(split_ratio=x)),
    "TrainConfig.holdout_fraction": ("holdout_fraction", "(0,1)",
                                     lambda x: TrainConfig(holdout_fraction=x)),
}
# Values outside each interval: an open interval excludes its endpoints.
OUTSIDE = {"[0,1]": (-0.25, 1.5, math.nan), "(0,1)": (0.0, 1.0, math.nan)}


@pytest.mark.parametrize("case", [
    (entry, value) for entry, (_, interval, _) in UNIT_RANGED.items()
    for value in OUTSIDE[interval]
], ids=lambda case: f"{case[0]}={case[1]}")
def test_value_outside_its_interval_is_a_domain_error(case):
    entry, value = case
    name, interval, call = UNIT_RANGED[entry]
    with pytest.raises(InvalidInputError) as info:
        call(value)
    assert str(info.value) == f"{name} must be in {interval}, got {value}"


@pytest.mark.parametrize("value", [0.0, 1.0])
@pytest.mark.parametrize("entry", [e for e, (_, interval, _) in UNIT_RANGED.items()
                                   if interval == "[0,1]"])
def test_closed_interval_takes_its_endpoints(entry, value):
    UNIT_RANGED[entry][2](value)


# A malformed variant -> the message of the check.
BAD_VARIANTS = {
    "str_variant": ("ab", "variants must be tuples of labels, got 'ab'"),
    "set_variant": ({"a"}, "variants must be tuples of labels, got {'a'}"),
    "empty_variant": ((), "variants must be non-empty"),
    "int_label": (("a", 1), "variant labels must be non-empty strings, got 1"),
    "empty_label": (("a", ""), "variant labels must be non-empty strings, got ''"),
    "list_label": (("a", ["b"]), "variant labels must be non-empty strings, got ['b']"),
}


def _as_json(variants) -> str:
    """JSON has no sets: a set variant is written as an object."""
    return json.dumps(variants, default=lambda o: dict.fromkeys(sorted(o), 1))


def _edited_checkpoint(tmp_path, edit):
    """A small trained checkpoint, loaded after ``edit`` changed its JSON."""
    path = tmp_path / "model.json"
    cfg = TrainConfig(rounds=0, select_sample_size=20)
    save_checkpoint(train_and_select(UniqueVariantLog((("a",), ("b",), ("a", "b"))), cfg), path)
    data = json.loads(path.read_text())
    edit(data)
    path.write_text(_as_json(data))
    return load_checkpoint(path)


def _with_holdout(variants, tmp_path):
    return _edited_checkpoint(tmp_path, lambda data: data.update(holdout_variants=variants))


# A generator's alphabet indexes its symbols, so each label must be a
# distinct non-empty string: a duplicate would split a label's mass.
@pytest.mark.parametrize("alphabet", [["a", "a", "c"], ["a", "", "c"], ["a", 1, "c"]],
                         ids=["duplicate", "empty", "number"])
def test_malformed_checkpoint_alphabet_is_a_domain_error(alphabet, tmp_path):
    with pytest.raises(InvalidInputError) as info:
        _edited_checkpoint(tmp_path, lambda data: data["generator"].update(alphabet=alphabet))
    assert str(info.value) == f"alphabet must hold distinct non-empty strings, got {alphabet!r}"


NET = flower_model(["a", "b"])

# entry point -> a call that passes it the variants, given a scratch directory
VARIANT_ENTRIES = {
    "check_variants": lambda vs, _: check_variants(vs),
    "UniqueVariantLog": lambda vs, _: UniqueVariantLog(tuple(vs)),
    "trace_model": lambda vs, _: trace_model(UniqueVariantLog(tuple(vs))),
    "fit_mle": lambda vs, _: fit_mle(UniqueVariantLog(tuple(vs)), 2, 0.1),
    "unique_variants": lambda vs, _: unique_variants(vs),
    "load_checkpoint": _with_holdout,
    "SystemTruth": lambda vs, _: SystemTruth(v_s=vs, lplus=UniqueVariantLog((("b",),)),
                                             v_u=frozenset()),
    "model_generalization": lambda vs, _: model_generalization(NET, vs),
    "token_replay_fitness": lambda vs, _: token_replay_fitness(NET, VariantLog(tuple(vs))),
    "etc_precision": lambda vs, _: etc_precision(NET, VariantLog(tuple(vs))),
    "score_log": lambda vs, _: score_log(NET, VariantLog(tuple(vs))),
    "compute_rates": lambda vs, _: compute_rates(vs, [("b",), ("c",)], [("b",)], [("c",)]),
    "split_system": lambda vs, _: split_system(vs, 0.5, 0),
    "synth_event_log": lambda vs, _: synth_event_log(vs),
    "write_variants_tsv": lambda vs, tmp_path: write_variants_tsv(vs, tmp_path / "v.tsv"),
    "dfg_discover": lambda vs, _: dfg_discover(VariantLog(tuple(vs))),
}


@pytest.mark.parametrize("case", list(BAD_VARIANTS))
@pytest.mark.parametrize("entry", list(VARIANT_ENTRIES))
def test_malformed_variant_is_a_domain_error(entry, case, tmp_path):
    bad, message = BAD_VARIANTS[case]
    variants = [("b",), bad]
    if entry == "load_checkpoint":
        # the checkpoint holds the variants as JSON reads them back
        with pytest.raises(InvalidInputError) as want:
            check_variants(json.loads(_as_json(variants)))
        message = str(want.value)
    with pytest.raises(InvalidInputError) as info:
        VARIANT_ENTRIES[entry](variants, tmp_path)
    assert str(info.value) == message
    if entry == "write_variants_tsv":
        assert not (tmp_path / "v.tsv").exists()
