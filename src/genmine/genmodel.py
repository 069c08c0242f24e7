"""Built-in trainable sequence model and discriminator.

The generator is a smoothed order-m n-gram model over the activity
alphabet plus an end marker; sampling applies a temperature to the
conditional distributions and never emits more than ``max_len`` visible
symbols.  The discriminator ``d_p`` is a linear model over k-gram count
features (k up to 3, with boundary markers) plus a normalized length
feature; the probability output is the sigmoid of the raw score, clamped
away from 0 and 1 so downstream acceptance ratios stay finite.

The n-gram/linear pair is a reference implementation of the sampling
interface (draw a variant, score a variant); any stronger sequence model
can be plugged in behind the same two callables.

Both callables are cached on the model instance.  A generator compiles,
per temperature and as draws first reach them, the states of a draw
automaton: one per (context, first step), holding that context's
cumulative-probability table and the state each symbol leads to.  A draw
walks the states, taking one ``rng.random()`` per symbol and bisecting
the state's table, the same single double and the same normalization that
``Generator.choice(p=...)`` uses, so a seeded stream gives the same
variants as sampling from :meth:`NGramGenerator.next_distribution`
directly.  A scorer memoizes ``score`` per variant, which pays when it
sees the same variants again, as MH chains over a small support do.
Training's refinement and selection draws go through
:func:`~genmine.sampling.draw_batch`, the only code that repositions a
generator: it leaves each one where one scalar ``random()`` call per
symbol would.
Every derived model (``with_added_counts``, ``dataclasses.replace``,
training) starts with empty caches, and checkpoints never contain them.

Adversarial refinement alternates logistic-loss updates of ``d_p`` against
fresh generator samples with a reinforcement step that feeds high-scoring
samples back into the generator's count tables.  Snapshots are ranked by
holdout coverage (``tp_e``), ties broken toward smaller sampled sets.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_right
from dataclasses import dataclass, field, replace
from functools import partial
from itertools import chain
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from . import losses, sampling
from .errors import InvalidInputError, TrainingDivergedError, check_count, check_real
from .logs import UniqueVariantLog, Variant, split_holdout
from .sampling import Uniforms

START = "start"
END = "end"

PROB_CLAMP = 1e-6
# Distinct variants memoized per scorer; with smoothing every sequence up to
# the length bound has positive probability, so the support can be huge.
SCORE_MEMO_LIMIT = 100_000
# Discriminator training: passes over the larger side, minibatch size, step size.
PRETRAIN_PASSES = 2
BATCH_SIZE = 32
LEARNING_RATE = 0.5
# A sample scoring at least the threshold adds the weight times its score to the counts.
REINFORCE_THRESHOLD = 0.5
REINFORCE_WEIGHT = 0.5
# log(p) >= -744.4 for every positive double p, so log(p) / temperature is
# finite once the temperature is at least 745 / sys.float_info.max (4.2e-306).
MIN_TEMPERATURE = 1e-300


def _check_temperature(temperature: float) -> None:
    check_real("temperature", temperature)
    if not 0 < temperature < math.inf:
        raise InvalidInputError(f"temperature must be finite and > 0, got {temperature}")
    if temperature < MIN_TEMPERATURE:
        raise InvalidInputError(f"temperature must be >= {MIN_TEMPERATURE}, got {temperature}")


def _check_smoothing(smoothing: float) -> None:
    check_real("smoothing", smoothing)
    if not 0 <= smoothing < math.inf:
        raise InvalidInputError("smoothing must be finite and >= 0")


# ---------------------------------------------------------------------------
# Generator
# ---------------------------------------------------------------------------

# One state of a generator's draw automaton: the CDF over symbols(), the
# state after each alphabet symbol (None until a draw first takes it) and
# the context the state stands for.
_DrawState = tuple[list[float], list["_DrawState | None"], tuple[str, ...]]


@dataclass(frozen=True, eq=False)
class NGramGenerator:
    """Smoothed order-m sequence model; context length is ``order - 1``."""

    order: int
    smoothing: float
    alphabet: tuple[str, ...]
    max_len: int
    counts: Mapping[tuple[str, ...], Mapping[str, float]]
    # temperature -> (context, first step) -> draw state, plus the start
    # state under None; see _draw_state() and _start_state().
    _draw_states: dict[float, dict[tuple[tuple[str, ...], bool] | None, _DrawState]] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self):
        object.__setattr__(self, "_draw_states", {})
        check_count("order", self.order)
        _check_smoothing(self.smoothing)
        check_count("max_len", self.max_len)
        if START in self.alphabet or END in self.alphabet:
            raise InvalidInputError("alphabet must not contain the boundary markers")
        # next_distribution divides by the smoothed row total, so it must be
        # finite; a row of huge finite counts could overflow it to inf.
        width = len(self.alphabet) + 1
        for row in self.counts.values():
            weights = list(row.values())
            if not all(w >= 0 for w in weights) or not math.isfinite(
                sum(weights) + self.smoothing * width
            ):
                raise InvalidInputError(
                    "generator counts must be non-negative with a finite total per context"
                )

    def symbols(self) -> tuple[str, ...]:
        return self.alphabet + (END,)

    def context_of(self, emitted: Sequence[str]) -> tuple[str, ...]:
        return _context(self.order, emitted)

    def next_distribution(self, context: tuple[str, ...], mask_end: bool = False) -> np.ndarray:
        """Smoothed next-symbol probabilities, aligned with :meth:`symbols`.

        ``mask_end=True`` zeroes the end marker and renormalizes; variants
        are non-empty by definition, so the first position is always
        sampled with the end marker masked.
        """
        syms = self.symbols()
        row = self.counts.get(context)
        lam = self.smoothing
        raw = np.array([0.0 if row is None else row.get(s, 0.0) for s in syms])
        total = raw.sum() + lam * len(syms)
        if total == 0.0:
            # Only an unseen context at zero smoothing: uniform fallback.
            probs = np.full(len(syms), 1.0 / len(syms))
        else:
            probs = (raw + lam) / total
        if mask_end:
            probs = probs.copy()
            probs[-1] = 0.0
            mass = probs.sum()
            if mass == 0.0:
                probs[:-1] = 1.0 / (len(syms) - 1)
            else:
                probs /= mass
        return probs

    def _draw_state(self, context: tuple[str, ...], first: bool, temperature: float) -> _DrawState:
        """The draw automaton's state for one context, built once and cached.

        Its CDF is :meth:`next_distribution` (end marker masked on the first
        step) raised to ``1/temperature`` and renormalized; the cumulative
        sum is normalized exactly as ``Generator.choice`` does, so
        ``bisect_right(cdf, rng.random())`` picks the index ``choice`` would
        pick from the same stream.  Its next-state list, one slot per
        alphabet symbol, fills in as draws pass through it.  The
        temperature's table exists once :meth:`_start_state` has checked it.
        """
        states = self._draw_states[temperature]
        state = states.get((context, first))
        if state is None:
            cdf = _compile_cdf(self.next_distribution(context, mask_end=first), temperature)
            state = states[(context, first)] = (cdf, [None] * len(self.alphabet), context)
        return state

    def _start_state(self, temperature: float) -> _DrawState:
        """The draw automaton's first-step state at ``temperature``.

        A temperature is checked when it first enters the cache, so an
        invalid one is never cached and raises on every draw.  A cache hit
        by anything but a ``float`` is checked too, since a bool equals and
        hashes like 1 or 0; the type test costs a draw almost nothing.
        """
        states = self._draw_states.get(temperature)
        if states is None or type(temperature) is not float:
            _check_temperature(temperature)
            if states is None:
                states = self._draw_states[temperature] = {}
                states[None] = self._draw_state(self.context_of(()), True, temperature)
        return states[None]

    def log_prob(self, v: Variant) -> float:
        """Log-probability of emitting exactly ``v`` (including termination)."""
        if len(v) > self.max_len:
            return -math.inf
        logp = 0.0
        syms = self.symbols()
        index = {s: i for i, s in enumerate(syms)}
        emitted: list[str] = []
        for label in v:
            if label not in index:
                return -math.inf
            dist = self.next_distribution(self.context_of(emitted), mask_end=not emitted)
            p = dist[index[label]]
            if p <= 0.0:
                return -math.inf
            logp += math.log(p)
            emitted.append(label)
        if len(v) < self.max_len:
            dist = self.next_distribution(self.context_of(emitted))
            p = dist[index[END]]
            if p <= 0.0:
                return -math.inf
            logp += math.log(p)
        return logp

    def with_added_counts(self, additions: Iterable[tuple[Variant, float]]) -> "NGramGenerator":
        """New generator with weighted variant counts folded into the tables."""
        new_counts: dict[tuple[str, ...], dict[str, float]] = {
            ctx: dict(row) for ctx, row in self.counts.items()
        }
        for v, weight in additions:
            if weight <= 0:
                continue
            _accumulate(new_counts, v, self.order, weight)
        return replace(self, counts=new_counts)


def _compile_cdf(probs: np.ndarray, temperature: float) -> list[float]:
    if temperature != 1.0:
        logp = np.log(probs, out=np.full_like(probs, -np.inf), where=probs > 0)
        logp = logp / temperature
        logp -= logp.max()
        probs = np.exp(logp)
        probs /= probs.sum()
    cdf = probs.cumsum()
    cdf /= cdf[-1]
    return cdf.tolist()


def _context(order: int, emitted: Sequence[str]) -> tuple[str, ...]:
    """The last ``order - 1`` symbols of ``emitted``, left-padded with START."""
    return ((START,) * (order - 1) + tuple(emitted))[len(emitted):]


def _accumulate(
    counts: dict[tuple[str, ...], dict[str, float]],
    v: Variant,
    order: int,
    weight: float,
) -> None:
    emitted: list[str] = []
    for label in tuple(v) + (END,):
        row = counts.setdefault(_context(order, emitted), {})
        row[label] = row.get(label, 0.0) + weight
        emitted.append(label)


def fit_mle(train: UniqueVariantLog, order: int, smoothing: float) -> NGramGenerator:
    """Maximum-likelihood n-gram fit over the training variants.

    With zero smoothing the conditional probabilities equal the empirical
    relative frequencies; the length bound is the longest training variant.
    """
    if len(train) == 0:
        raise InvalidInputError("fit_mle requires a non-empty training set")
    check_count("order", order)
    alphabet = tuple(sorted({label for v in train for label in v}))
    max_len = max(len(v) for v in train)
    counts: dict[tuple[str, ...], dict[str, float]] = {}
    for v in train:
        _accumulate(counts, v, order, 1.0)
    return NGramGenerator(
        order=order, smoothing=smoothing, alphabet=alphabet, max_len=max_len, counts=counts
    )


def sample_variant(gen: NGramGenerator, temperature: float, rng: Uniforms) -> Variant:
    """Draw one variant; symbols come from p^(1/temperature), renormalized.

    The end marker is masked at the first position (variants are non-empty)
    and generation stops at the end marker or at the length bound.  Each
    symbol consumes one ``rng.random()`` and moves one step through the
    generator's draw automaton (see :meth:`NGramGenerator._draw_state`).
    """
    alphabet = gen.alphabet
    end_index = len(alphabet)
    max_len = gen.max_len
    random = rng.random
    cdf, nexts, context = gen._start_state(temperature)
    emitted: list[str] = []
    while True:
        idx = bisect_right(cdf, random())
        if idx == end_index:
            break
        emitted.append(alphabet[idx])
        if len(emitted) >= max_len:
            break
        state = nexts[idx]
        if state is None:
            state = nexts[idx] = gen._draw_state(
                (context + (alphabet[idx],))[1:], False, temperature
            )
        cdf, nexts, context = state
    return tuple(emitted)


# ---------------------------------------------------------------------------
# Feature scorer (discriminator)
# ---------------------------------------------------------------------------

LENGTH_FEATURE = "len"


def _kgram_features(v: Variant) -> list[str]:
    padded = (START,) + tuple(v) + (END,)
    feats = [f"g1:{label}" for label in v]
    feats += [f"g2:{a}|{b}" for a, b in zip(padded, padded[1:])]
    feats += [f"g3:{a}|{b}|{c}" for a, b, c in zip(padded, padded[1:], padded[2:])]
    return feats


@dataclass(frozen=True, eq=False)
class FeatureScorer:
    """Linear model over k-gram count features with a sigmoid output."""

    vocabulary: tuple[str, ...]
    weights: tuple[float, ...]
    bias: float
    max_len_ref: int
    _index: Mapping[str, int] = field(init=False, repr=False, compare=False)
    _weights: np.ndarray = field(init=False, repr=False, compare=False)
    # variant -> score(); filled by score() and, for the negatives it trained
    # on, by train_discriminator(); at most SCORE_MEMO_LIMIT entries.
    _scores: dict[Variant, float] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.vocabulary) != len(self.weights):
            raise InvalidInputError("vocabulary and weights must have equal length")
        if self.max_len_ref < 1:
            raise InvalidInputError("max_len_ref must be >= 1")
        object.__setattr__(self, "_index", {f: i for i, f in enumerate(self.vocabulary)})
        weights = np.asarray(self.weights, dtype=float)
        weights.setflags(write=False)
        object.__setattr__(self, "_weights", weights)
        object.__setattr__(self, "_scores", {})

    def featurize(self, v: Variant) -> np.ndarray:
        return self._row(_kgram_features(v), len(v))

    def _row(self, feats: list[str], length: int) -> np.ndarray:
        """The feature vector of a variant of ``length`` symbols whose
        k-grams are ``feats``: each known k-gram's count, exact as a float,
        and the normalized length; k-grams outside the vocabulary are skipped."""
        idx = self._index
        ids = np.array([j for j in map(idx.get, feats) if j is not None], dtype=np.intp)
        vec = np.bincount(ids, minlength=len(self.vocabulary)).astype(float)
        j = idx.get(LENGTH_FEATURE)
        if j is not None:
            vec[j] = length / self.max_len_ref
        return vec

    def raw_score(self, v: Variant) -> float:
        return float(self.featurize(v) @ self._weights) + self.bias


def init_scorer(variants: Iterable[Variant], max_len_ref: int) -> FeatureScorer:
    """Zero-initialized scorer whose vocabulary covers the given variants."""
    empty = FeatureScorer(vocabulary=(), weights=(), bias=0.0, max_len_ref=max_len_ref)
    return _extend_vocabulary(empty, chain(map(_kgram_features, variants), [[LENGTH_FEATURE]]))


def _extend_vocabulary(scorer: FeatureScorer, feature_lists: Iterable[list[str]]) -> FeatureScorer:
    """``scorer`` with every k-gram of ``feature_lists`` in its vocabulary;
    new k-grams join in sorted order at weight zero."""
    extra: set[str] = set()
    known = scorer._index
    for feats in feature_lists:
        for feat in feats:
            if feat not in known:
                extra.add(feat)
    if not extra:
        return scorer
    vocab = scorer.vocabulary + tuple(sorted(extra))
    weights = scorer.weights + (0.0,) * len(extra)
    return replace(scorer, vocabulary=vocab, weights=weights)


def score(d: FeatureScorer, v: Variant) -> float:
    """Probability that the variant is realistic, clamped to [1e-6, 1-1e-6].

    Memoized per variant on ``d``.
    """
    p = d._scores.get(v)
    if p is None:
        p = _probability(d.raw_score(v))
        if len(d._scores) < SCORE_MEMO_LIMIT:
            d._scores[v] = p
    return p


def _probability(raw: float) -> float:
    """The clamped sigmoid of a raw score."""
    p = 0.5 * (1.0 + math.tanh(0.5 * raw))
    return min(max(p, PROB_CLAMP), 1.0 - PROB_CLAMP)


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TrainConfig:
    """Settings of the n-gram fit, the refinement rounds and snapshot selection.

    The discriminator's optimizer and the reinforcement rule are module constants.
    """

    rounds: int = 5
    select_sample_size: int = 10_000
    temperature: float = 1.0
    seed: int = 0
    order: int = 3
    smoothing: float = 0.1
    holdout_fraction: float = 0.9
    round_samples: int = 2000

    def __post_init__(self):
        for name in ("select_sample_size", "order", "round_samples"):
            check_count(name, getattr(self, name))
        for name in ("rounds", "seed"):
            check_count(name, getattr(self, name), minimum=0)
        _check_temperature(self.temperature)
        _check_smoothing(self.smoothing)
        check_real("holdout_fraction", self.holdout_fraction, "(0,1)")


def train_discriminator(
    d: FeatureScorer,
    positives: Sequence[Variant],
    negatives: Sequence[Variant],
    rng: np.random.Generator,
) -> FeatureScorer:
    """Minibatch gradient descent on the logistic loss.

    Positives are variants considered real, negatives generated ones.  The
    vocabulary is extended (at weight zero) to cover unseen k-grams before
    training so novel negatives are not invisible to the model.  Each
    distinct variant's k-grams and feature row are built once, and the
    trained scorer's memo holds the negatives' scores from those rows.
    Step size and batching are the module constants ``LEARNING_RATE``,
    ``BATCH_SIZE`` and ``PRETRAIN_PASSES``.
    """
    if not positives or not negatives:
        raise InvalidInputError("both batch sources must be non-empty")
    kgrams = {v: _kgram_features(v) for v in dict.fromkeys(chain(positives, negatives))}
    d = _extend_vocabulary(d, kgrams.values())
    rows = {v: d._row(feats, len(v)) for v, feats in kgrams.items()}
    feats_pos = np.stack([rows[v] for v in positives])
    feats_neg = np.stack([rows[v] for v in negatives])
    weights, bias = d._weights, d.bias
    history: list[float] = []
    for bi_pos, bi_neg in _minibatches(len(positives), len(negatives), rng):
        grad_w, grad_b, value = losses.loss_gradient(
            feats_pos[bi_pos], feats_neg[bi_neg], weights, bias
        )
        if not math.isfinite(value):
            raise TrainingDivergedError(
                "loss became non-finite during discriminator training",
                diagnostics={"loss": value, "history": history},
            )
        weights = weights - LEARNING_RATE * grad_w
        bias = bias - LEARNING_RATE * grad_b
        history.append(value)
    trained = replace(d, weights=tuple(weights.tolist()), bias=float(bias))
    for v in dict.fromkeys(negatives):
        if len(trained._scores) >= SCORE_MEMO_LIMIT:
            break
        trained._scores[v] = _probability(float(rows[v] @ trained._weights) + trained.bias)
    return trained


def _minibatches(
    n_pos: int, n_neg: int, rng: np.random.Generator
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """(positive, negative) index batches: ``PRETRAIN_PASSES`` passes over the larger side."""
    n_steps = max(1, math.ceil(max(n_pos, n_neg) / BATCH_SIZE))
    for _ in range(PRETRAIN_PASSES * n_steps):
        yield rng.integers(0, n_pos, size=BATCH_SIZE), rng.integers(0, n_neg, size=BATCH_SIZE)


def _refinement_step(
    gen: NGramGenerator,
    d_p: FeatureScorer,
    train_list: list[Variant],
    cfg: TrainConfig,
    rng: np.random.Generator,
) -> tuple[NGramGenerator, FeatureScorer, list[Variant]]:
    """One adversarial round: draw fresh samples, retrain ``d_p`` against
    them and reinforce the generator with score-weighted counts of the
    samples that clear the threshold.

    Counts are only ever added, so the generator stays normalized and the
    training variants keep nonzero probability.
    """
    draw = partial(sample_variant, gen, cfg.temperature)
    samples = sampling.draw_batch(draw, cfg.round_samples, rng)
    d_p = train_discriminator(d_p, train_list, samples, rng=rng)
    additions = []
    for v in samples:
        s = score(d_p, v)
        if s >= REINFORCE_THRESHOLD:
            additions.append((v, REINFORCE_WEIGHT * s))
    if additions:
        gen = gen.with_added_counts(additions)
    return gen, d_p, samples


@dataclass(frozen=True)
class CandidateEval:
    round_index: int
    tp_e: float
    sample_count: int


def select_model(evals: Sequence[CandidateEval]) -> int:
    """Index of the evaluation with maximal tp_e; ties prefer fewer samples, then earliest."""
    if not evals:
        raise InvalidInputError("select_model requires at least one candidate")
    return max(range(len(evals)), key=lambda i: (evals[i].tp_e, -evals[i].sample_count))


@dataclass(frozen=True)
class TrainResult:
    generator: NGramGenerator
    d_p: FeatureScorer
    train: UniqueVariantLog
    holdout: UniqueVariantLog
    candidates: tuple[CandidateEval, ...]
    selected_round: int
    config: TrainConfig


def train_and_select(lplus: UniqueVariantLog, cfg: TrainConfig) -> TrainResult:
    """Full training pipeline over an observed unique variant log.

    Splits off a holdout slice, fits the n-gram by counting, then runs
    ``cfg.rounds`` refinement rounds.  After the fit and after every round
    the current generator is scored by drawing
    ``cfg.select_sample_size`` variants and measuring holdout coverage;
    the best-scoring snapshot wins.
    """
    if len(lplus) < 2:
        raise InvalidInputError("training requires at least 2 observed variants")
    train, holdout = split_holdout(lplus, cfg.holdout_fraction, cfg.seed)
    if len(holdout) == 0:
        # Tiny logs: ceil() can leave nothing behind; fall back to one variant.
        train = UniqueVariantLog(lplus.variants[:-1])
        holdout = UniqueVariantLog(lplus.variants[-1:])
    rng = np.random.default_rng(cfg.seed)
    gen = fit_mle(train, cfg.order, cfg.smoothing)
    d_p = init_scorer(train, gen.max_len)
    snapshots: list[tuple[NGramGenerator, FeatureScorer]] = []
    evals: list[CandidateEval] = []

    def evaluate(round_index: int) -> None:
        eval_rng = np.random.default_rng([cfg.seed, 1000 + round_index])
        draw = partial(sample_variant, gen, cfg.temperature)
        drawn = set(sampling.draw_batch(draw, cfg.select_sample_size, eval_rng))
        hits = sum(1 for v in holdout if v in drawn)
        snapshots.append((gen, d_p))
        evals.append(CandidateEval(round_index, hits / len(holdout), len(drawn)))

    evaluate(0)
    train_list = list(train)
    for r in range(1, cfg.rounds + 1):
        gen, d_p, samples = _refinement_step(gen, d_p, train_list, cfg, rng)
        # Unused draws: seeded reports stay byte-identical until the ROADMAP item 8 stream break.
        for _ in _minibatches(len(train_list), len(samples), rng):
            pass
        evaluate(r)
    best_index = select_model(evals)
    best_gen, best_dp = snapshots[best_index]
    return TrainResult(
        generator=best_gen,
        d_p=best_dp,
        train=train,
        holdout=holdout,
        candidates=tuple(evals),
        selected_round=evals[best_index].round_index,
        config=cfg,
    )


# ---------------------------------------------------------------------------
# Checkpoint format
# ---------------------------------------------------------------------------

CHECKPOINT_VERSION = 4


def _scorer_to_dict(d: FeatureScorer) -> dict:
    return {
        "vocabulary": list(d.vocabulary),
        "weights": list(d.weights),
        "bias": d.bias,
        "max_len_ref": d.max_len_ref,
    }


def _scorer_from_dict(data: Mapping) -> FeatureScorer:
    return FeatureScorer(
        vocabulary=tuple(data["vocabulary"]),
        weights=tuple(float(w) for w in data["weights"]),
        bias=float(data["bias"]),
        max_len_ref=int(data["max_len_ref"]),
    )


def save_checkpoint(result: TrainResult, path: str | Path) -> None:
    gen = result.generator
    payload = {
        "version": CHECKPOINT_VERSION,
        "generator": {
            "order": gen.order,
            "smoothing": gen.smoothing,
            "alphabet": list(gen.alphabet),
            "max_len": gen.max_len,
            "counts": [
                [list(ctx), {s: w for s, w in sorted(row.items())}]
                for ctx, row in sorted(gen.counts.items())
            ],
        },
        "d_p": _scorer_to_dict(result.d_p),
        "train_variants": [list(v) for v in result.train],
        "holdout_variants": [list(v) for v in result.holdout],
        "candidates": [
            {"round": e.round_index, "tp_e": e.tp_e, "sample_count": e.sample_count}
            for e in result.candidates
        ],
        "selected_round": result.selected_round,
        "config": {k: getattr(result.config, k) for k in TrainConfig.__dataclass_fields__},
    }
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def load_checkpoint(path: str | Path) -> TrainResult:
    """Read a checkpoint written by :func:`save_checkpoint`.

    A file that is not JSON or lacks or mistypes a field raises
    :class:`InvalidInputError`.
    """
    try:
        data = json.loads(Path(path).read_text())
        if data.get("version") != CHECKPOINT_VERSION:
            raise InvalidInputError(f"unsupported checkpoint version {data.get('version')!r}")
        g = data["generator"]
        gen = NGramGenerator(
            order=int(g["order"]),
            smoothing=float(g["smoothing"]),
            alphabet=tuple(g["alphabet"]),
            max_len=int(g["max_len"]),
            counts={
                tuple(ctx): {s: float(w) for s, w in row.items()} for ctx, row in g["counts"]
            },
        )
        return TrainResult(
            generator=gen,
            d_p=_scorer_from_dict(data["d_p"]),
            train=UniqueVariantLog(tuple(tuple(v) for v in data["train_variants"])),
            holdout=UniqueVariantLog(tuple(tuple(v) for v in data["holdout_variants"])),
            candidates=tuple(
                CandidateEval(int(c["round"]), float(c["tp_e"]), int(c["sample_count"]))
                for c in data["candidates"]
            ),
            selected_round=int(data["selected_round"]),
            config=TrainConfig(**data["config"]),
        )
    except InvalidInputError:
        raise
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise InvalidInputError(f"malformed checkpoint {str(path)!r}: {exc!r}") from exc
