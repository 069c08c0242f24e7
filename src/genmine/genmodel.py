"""Built-in trainable sequence model and discriminators.

The generator is a smoothed order-m n-gram model over the activity
alphabet plus an end marker; sampling applies a temperature to the
conditional distributions and never emits more than ``max_len`` visible
symbols.  The discriminators are linear models over k-gram count features
(k up to 3, with boundary markers) plus a normalized length feature; the
probability output is the sigmoid of the raw score, clamped away from 0
and 1 so downstream acceptance ratios stay finite.

The n-gram/linear pair is a reference implementation of the sampling
interface (draw a variant, score a variant); any stronger sequence model
can be plugged in behind the same two callables.

Both callables are cached on the model instance.  A generator compiles,
on first use, one cumulative-probability table per (context, first step)
and temperature; a draw takes one ``rng.random()`` per symbol and bisects
that table, the same single double and the same normalization that
``Generator.choice(p=...)`` uses, so a seeded stream gives the same
variants as sampling from :meth:`NGramGenerator.next_distribution`
directly.  A scorer memoizes ``score`` per variant, which pays when it
sees the same variants again, as MH chains over a small support do.
Every derived model (``with_added_counts``, ``dataclasses.replace``,
training) starts with empty caches, and checkpoints never contain them.

Adversarial refinement alternates discriminator updates against fresh
generator samples with a reinforcement step that feeds high-scoring
samples back into the generator's count tables.  Snapshots are ranked by
holdout coverage (``tp_e``), ties broken toward smaller sampled sets.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_right
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import losses
from .errors import InvalidInputError, TrainingDivergedError
from .logs import UniqueVariantLog, Variant, split_holdout

START = "start"
END = "end"

PROB_CLAMP = 1e-6
# Distinct variants memoized per scorer; with smoothing every sequence up to
# the length bound has positive probability, so the support can be huge.
SCORE_MEMO_LIMIT = 100_000


# ---------------------------------------------------------------------------
# Generator
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class NGramGenerator:
    """Smoothed order-m sequence model; context length is ``order - 1``."""

    order: int
    smoothing: float
    alphabet: tuple[str, ...]
    max_len: int
    counts: Mapping[tuple[str, ...], Mapping[str, float]]
    # (context, first step, temperature) -> CDF over symbols(); see _cdf().
    _cdfs: dict[tuple[tuple[str, ...], bool, float], list[float]] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self):
        object.__setattr__(self, "_cdfs", {})
        if self.order < 1:
            raise InvalidInputError("order must be >= 1")
        if not 0 <= self.smoothing < math.inf:
            raise InvalidInputError("smoothing must be finite and >= 0")
        if self.max_len < 1:
            raise InvalidInputError("max_len must be >= 1")
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
        ctx_len = self.order - 1
        if ctx_len == 0:
            return ()
        padded = (START,) * ctx_len + tuple(emitted)
        return padded[-ctx_len:]

    def next_distribution(self, context: tuple[str, ...], mask_end: bool = False) -> np.ndarray:
        """Smoothed next-symbol probabilities, aligned with :meth:`symbols`.

        ``mask_end=True`` zeroes the end marker and renormalizes; variants
        are non-empty by definition, so the first position is always
        sampled with the end marker masked.
        """
        syms = self.symbols()
        row = self.counts.get(context)
        lam = self.smoothing
        if row is None and lam == 0.0:
            # Unreachable via the model's own sampling paths; uniform fallback.
            probs = np.full(len(syms), 1.0 / len(syms))
        else:
            raw = np.array([0.0 if row is None else row.get(s, 0.0) for s in syms])
            total = raw.sum() + lam * len(syms)
            if total == 0.0:
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

    def _cdf(self, context: tuple[str, ...], first: bool, temperature: float) -> list[float]:
        """Cumulative draw table for one context, built once and cached.

        The probabilities are :meth:`next_distribution` (end marker masked
        on the first step) raised to ``1/temperature`` and renormalized; the
        cumulative sum is normalized exactly as ``Generator.choice`` does,
        so ``bisect_right(cdf, rng.random())`` picks the index ``choice``
        would pick from the same stream.
        """
        key = (context, first, temperature)
        cdf = self._cdfs.get(key)
        if cdf is None:
            cdf = self._cdfs[key] = _compile_cdf(
                self.next_distribution(context, mask_end=first), temperature
            )
        return cdf

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


def _accumulate(
    counts: dict[tuple[str, ...], dict[str, float]],
    v: Variant,
    order: int,
    weight: float,
) -> None:
    emitted: list[str] = []
    ctx_len = order - 1
    for label in tuple(v) + (END,):
        if ctx_len == 0:
            ctx: tuple[str, ...] = ()
        else:
            padded = (START,) * ctx_len + tuple(emitted)
            ctx = padded[-ctx_len:]
        row = counts.setdefault(ctx, {})
        row[label] = row.get(label, 0.0) + weight
        emitted.append(label)


def fit_mle(train: UniqueVariantLog, order: int = 3, smoothing: float = 0.1) -> NGramGenerator:
    """Maximum-likelihood n-gram fit over the training variants.

    With zero smoothing the conditional probabilities equal the empirical
    relative frequencies; the length bound is the longest training variant.
    """
    if len(train) == 0:
        raise InvalidInputError("fit_mle requires a non-empty training set")
    alphabet = tuple(sorted({label for v in train for label in v}))
    max_len = max(len(v) for v in train)
    counts: dict[tuple[str, ...], dict[str, float]] = {}
    for v in train:
        _accumulate(counts, v, order, 1.0)
    return NGramGenerator(
        order=order, smoothing=smoothing, alphabet=alphabet, max_len=max_len, counts=counts
    )


def sample_variant(
    gen: NGramGenerator, temperature: float, rng: np.random.Generator
) -> Variant:
    """Draw one variant; symbols come from p^(1/temperature), renormalized.

    The end marker is masked at the first position (variants are non-empty)
    and generation stops at the end marker or at the length bound.  Each
    symbol consumes one ``rng.random()`` (see :meth:`NGramGenerator._cdf`).
    """
    if temperature <= 0:
        raise InvalidInputError("temperature must be > 0")
    syms = gen.symbols()
    end_index = len(syms) - 1
    emitted: list[str] = []
    while True:
        cdf = gen._cdf(gen.context_of(emitted), not emitted, temperature)
        idx = bisect_right(cdf, rng.random())
        if idx == end_index:
            break
        emitted.append(syms[idx])
        if len(emitted) >= gen.max_len:
            break
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
    # variant -> score(); filled by score(), at most SCORE_MEMO_LIMIT entries.
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
        vec = np.zeros(len(self.vocabulary))
        idx = self._index
        for feat in _kgram_features(v):
            j = idx.get(feat)
            if j is not None:
                vec[j] += 1.0
        j = idx.get(LENGTH_FEATURE)
        if j is not None:
            vec[j] = len(v) / self.max_len_ref
        return vec

    def raw_score(self, v: Variant) -> float:
        return float(self.featurize(v) @ self._weights) + self.bias


def init_scorer(variants: Iterable[Variant], max_len_ref: int) -> FeatureScorer:
    """Zero-initialized scorer whose vocabulary covers the given variants."""
    vocab: set[str] = set()
    for v in variants:
        vocab.update(_kgram_features(v))
    vocab.add(LENGTH_FEATURE)
    ordered = tuple(sorted(vocab))
    return FeatureScorer(
        vocabulary=ordered, weights=(0.0,) * len(ordered), bias=0.0, max_len_ref=max_len_ref
    )


def _extend_vocabulary(scorer: FeatureScorer, variants: Iterable[Variant]) -> FeatureScorer:
    extra: set[str] = set()
    known = set(scorer.vocabulary)
    for v in variants:
        for feat in _kgram_features(v):
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
        p = 0.5 * (1.0 + math.tanh(0.5 * d.raw_score(v)))
        p = min(max(p, PROB_CLAMP), 1.0 - PROB_CLAMP)
        if len(d._scores) < SCORE_MEMO_LIMIT:
            d._scores[v] = p
    return p


def scorer_loss_gradient(
    loss: str,
    scorer: FeatureScorer,
    positives: Sequence[Variant],
    negatives: Sequence[Variant],
) -> tuple[np.ndarray, float, float]:
    """Chain-rule gradient of a loss id w.r.t. the scorer's weights and bias."""
    if not positives or not negatives:
        raise InvalidInputError("both batches must be non-empty")
    feats_pos = np.stack([scorer.featurize(v) for v in positives])
    feats_neg = np.stack([scorer.featurize(v) for v in negatives])
    return losses.loss_gradient(
        loss, feats_pos, feats_neg, scorer._weights, scorer.bias
    )


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters for discriminator fitting and generator refinement."""

    pretrain_passes: int = 2
    rounds: int = 5
    batch_size: int = 32
    learning_rate: float = 0.5
    eval_interval: int = 1
    select_sample_size: int = 10_000
    temperature: float = 1.0
    seed: int = 0
    order: int = 3
    smoothing: float = 0.1
    holdout_fraction: float = 0.9
    round_samples: int = 2000
    reinforce_threshold: float = 0.5
    reinforce_weight: float = 0.5

    def __post_init__(self):
        positive = (
            self.pretrain_passes, self.batch_size, self.learning_rate,
            self.eval_interval, self.select_sample_size, self.temperature,
            self.order, self.round_samples, self.reinforce_weight,
        )
        if any(x <= 0 for x in positive):
            raise InvalidInputError("all TrainConfig numeric fields must be positive")
        if self.rounds < 0:
            raise InvalidInputError("rounds must be >= 0")
        if not 0.0 < self.holdout_fraction < 1.0:
            raise InvalidInputError("holdout_fraction must be in (0,1)")


def train_discriminator(
    d: FeatureScorer,
    positives: Sequence[Variant],
    negatives: Sequence[Variant],
    cfg: TrainConfig,
    loss: str = "standard_d_logistic",
    rng: np.random.Generator | None = None,
    return_history: bool = False,
):
    """Minibatch gradient descent on the selected loss.

    Positives are variants considered real, negatives generated ones.  The
    vocabulary is extended (at weight zero) to cover unseen k-grams before
    training so novel negatives are not invisible to the model.
    """
    if not positives or not negatives:
        raise InvalidInputError("both batch sources must be non-empty")
    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    d = _extend_vocabulary(d, list(positives) + list(negatives))
    feats_pos = np.stack([d.featurize(v) for v in positives])
    feats_neg = np.stack([d.featurize(v) for v in negatives])
    weights = d._weights
    bias = d.bias
    history: list[float] = []
    n_steps = max(1, math.ceil(max(len(positives), len(negatives)) / cfg.batch_size))
    for _ in range(cfg.pretrain_passes):
        for _ in range(n_steps):
            bi_pos = rng.integers(0, len(positives), size=cfg.batch_size)
            bi_neg = rng.integers(0, len(negatives), size=cfg.batch_size)
            grad_w, grad_b, value = losses.loss_gradient(
                loss, feats_pos[bi_pos], feats_neg[bi_neg], weights, bias
            )
            if not math.isfinite(value):
                raise TrainingDivergedError(
                    "loss became non-finite during discriminator training",
                    diagnostics={"loss": value, "history": history},
                )
            weights = weights - cfg.learning_rate * grad_w
            bias = bias - cfg.learning_rate * grad_b
            history.append(value)
    trained = replace(d, weights=tuple(weights.tolist()), bias=float(bias))
    if return_history:
        return trained, history
    return trained


def _refinement_step(
    gen: NGramGenerator,
    d_p: FeatureScorer,
    train_list: list[Variant],
    cfg: TrainConfig,
    rng: np.random.Generator,
) -> tuple[NGramGenerator, FeatureScorer, list[Variant]]:
    samples = [sample_variant(gen, cfg.temperature, rng) for _ in range(cfg.round_samples)]
    d_p = train_discriminator(d_p, train_list, samples, cfg, rng=rng)
    additions = []
    for v in samples:
        s = score(d_p, v)
        if s >= cfg.reinforce_threshold:
            additions.append((v, cfg.reinforce_weight * s))
    if additions:
        gen = gen.with_added_counts(additions)
    return gen, d_p, samples


def refine_generator(
    gen: NGramGenerator,
    d_p: FeatureScorer,
    train: Sequence[Variant],
    cfg: TrainConfig,
    rng: np.random.Generator,
) -> tuple[NGramGenerator, FeatureScorer]:
    """Adversarial refinement loop.

    Each round draws fresh samples, retrains the probability discriminator
    against them, and reinforces the generator with score-weighted counts
    of the samples that clear the acceptance threshold.  The generator
    stays normalized by construction and training variants keep nonzero
    probability because counts are only ever added.
    """
    train_list = list(train)
    for _ in range(cfg.rounds):
        gen, d_p, _ = _refinement_step(gen, d_p, train_list, cfg, rng)
    return gen, d_p


@dataclass(frozen=True)
class CandidateEval:
    round_index: int
    tp_e: float
    sample_count: int


def select_model(candidates: Sequence[tuple[object, float, int]]):
    """Pick the snapshot with maximal tp_e; ties prefer fewer samples, then earliest."""
    if not candidates:
        raise InvalidInputError("select_model requires at least one candidate")
    best_idx = 0
    for i in range(1, len(candidates)):
        _, tp_e, count = candidates[i]
        _, best_tp_e, best_count = candidates[best_idx]
        if (tp_e, -count) > (best_tp_e, -best_count):
            best_idx = i
    return candidates[best_idx][0]


@dataclass(frozen=True)
class TrainResult:
    generator: NGramGenerator
    d_p: FeatureScorer
    d_r: FeatureScorer
    train: UniqueVariantLog
    holdout: UniqueVariantLog
    candidates: tuple[CandidateEval, ...]
    selected_round: int
    config: TrainConfig


def train_and_select(lplus: UniqueVariantLog, cfg: TrainConfig) -> TrainResult:
    """Full training pipeline over an observed unique variant log.

    Splits off a holdout slice, fits the n-gram by counting, then runs
    ``cfg.rounds`` refinement rounds.  After every ``cfg.eval_interval``
    rounds the current generator is scored by drawing
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
    d_r = d_p
    snapshots: list[tuple[NGramGenerator, FeatureScorer, FeatureScorer]] = []
    evals: list[CandidateEval] = []

    def evaluate(round_index: int) -> None:
        eval_rng = np.random.default_rng([cfg.seed, 1000 + round_index])
        drawn = {
            sample_variant(gen, cfg.temperature, eval_rng)
            for _ in range(cfg.select_sample_size)
        }
        hits = sum(1 for v in holdout if v in drawn)
        snapshots.append((gen, d_p, d_r))
        evals.append(CandidateEval(round_index, hits / len(holdout), len(drawn)))

    evaluate(0)
    train_list = list(train)
    for r in range(1, cfg.rounds + 1):
        gen, d_p, samples = _refinement_step(gen, d_p, train_list, cfg, rng)
        d_r = train_discriminator(
            d_r, train_list, samples, cfg, loss="relativistic_d", rng=rng
        )
        if r % cfg.eval_interval == 0:
            evaluate(r)
    triples = [(i, e.tp_e, e.sample_count) for i, e in enumerate(evals)]
    best_index = select_model(triples)
    best_gen, best_dp, best_dr = snapshots[best_index]
    return TrainResult(
        generator=best_gen,
        d_p=best_dp,
        d_r=best_dr,
        train=train,
        holdout=holdout,
        candidates=tuple(evals),
        selected_round=evals[best_index].round_index,
        config=cfg,
    )


# ---------------------------------------------------------------------------
# Checkpoint format
# ---------------------------------------------------------------------------

CHECKPOINT_VERSION = 1


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
        "d_r": _scorer_to_dict(result.d_r),
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
            d_r=_scorer_from_dict(data["d_r"]),
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
