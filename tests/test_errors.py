"""The shared argument checks of `genmine.errors`, through the entry points
that use them: a bad seed, a non-number or a real value outside its unit
interval is a domain error, never a bare `TypeError` or `ValueError`, and a
bool is neither a seed nor a real number."""

from __future__ import annotations

import math

import numpy as np
import pytest

from genmine import (
    ConformanceScores,
    ExperimentConfig,
    InvalidInputError,
    TrainConfig,
    UniqueVariantLog,
    fit_mle,
    generalization_score,
    sample_variant,
    score_s,
    split_holdout,
    split_system,
    synth_event_log,
)

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
