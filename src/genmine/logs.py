"""Event-log and variant data model.

An event log is a sequence of traces; each trace is a chronologically
ordered, non-empty sequence of timestamped event instances.  A variant is
the label-sequence projection of a trace: equality ignores timestamps and
case ids.  The variant log keeps one variant per trace (a multiset); the
unique variant log deduplicates it in first-occurrence order so that all
downstream sampling is reproducible.

Traces never share equal timestamps within a case: events are modeled as
instantaneous, so ties are rejected at construction time rather than
silently reordered.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone
from itertools import groupby
from math import ceil
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from .errors import InvalidInputError, check_count, check_real

# A variant is a non-empty tuple of activity labels.
Variant = tuple[str, ...]

SYNTH_EPOCH = datetime(2000, 1, 1, tzinfo=timezone.utc)


@dataclass(frozen=True)
class EventInstance:
    """A single recorded occurrence of an activity."""

    label: str
    timestamp: datetime

    def __post_init__(self):
        if not self.label:
            raise InvalidInputError("event label must be non-empty")


@dataclass(frozen=True)
class Trace:
    """Non-empty sequence of event instances with strictly increasing timestamps."""

    case_id: str
    events: tuple[EventInstance, ...]

    def __post_init__(self):
        if not self.events:
            raise InvalidInputError(f"trace {self.case_id!r} has no events")
        for prev, cur in zip(self.events, self.events[1:]):
            if cur.timestamp <= prev.timestamp:
                raise InvalidInputError(
                    f"trace {self.case_id!r}: timestamps must be strictly increasing "
                    f"({prev.timestamp.isoformat()} !< {cur.timestamp.isoformat()})"
                )

    def __len__(self) -> int:
        return len(self.events)


@dataclass(frozen=True)
class EventLog:
    """A sequence (multiset, never deduplicated) of traces."""

    traces: tuple[Trace, ...]

    def __len__(self) -> int:
        return len(self.traces)

    def __iter__(self) -> Iterator[Trace]:
        return iter(self.traces)


@dataclass(frozen=True)
class VariantLog:
    """One variant per trace of the source log, in source order."""

    variants: tuple[Variant, ...]

    def __len__(self) -> int:
        return len(self.variants)

    def __iter__(self) -> Iterator[Variant]:
        return iter(self.variants)


@dataclass(frozen=True)
class UniqueVariantLog:
    """Deduplicated variants in first-occurrence order."""

    variants: tuple[Variant, ...]
    _index: frozenset[Variant] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        index = frozenset(self.variants)
        if len(index) != len(self.variants):
            raise InvalidInputError("unique variant log contains repeats")
        object.__setattr__(self, "_index", index)

    def __len__(self) -> int:
        return len(self.variants)

    def __iter__(self) -> Iterator[Variant]:
        return iter(self.variants)

    def __contains__(self, v: object) -> bool:
        return v in self._index

    def as_set(self) -> frozenset[Variant]:
        return self._index


def variant_of(trace: Trace) -> Variant:
    """Project a trace onto its label sequence."""
    if not isinstance(trace, Trace) or not trace.events:
        raise InvalidInputError("variant_of requires a non-empty trace")
    return tuple(e.label for e in trace.events)


def build_variant_logs(log: EventLog) -> tuple[VariantLog, UniqueVariantLog]:
    """Map every trace to its variant and deduplicate in first-occurrence order."""
    if not log.traces:
        raise InvalidInputError("build_variant_logs requires a non-empty log")
    all_variants = tuple(variant_of(t) for t in log.traces)
    return VariantLog(all_variants), unique_variants(all_variants)


def unique_variants(variants: Iterable[Variant]) -> UniqueVariantLog:
    """Deduplicate variants, keeping the first occurrence of each."""
    return UniqueVariantLog(tuple(dict.fromkeys(variants)))


def split_holdout(
    lplus: UniqueVariantLog, fraction: float, seed: int
) -> tuple[UniqueVariantLog, UniqueVariantLog]:
    """Split a unique variant log into train/holdout parts.

    The train side gets ceil(fraction * n) variants so it never loses the
    majority share on tiny inputs.  Deterministic for a fixed seed; both
    sides keep the original first-occurrence order.
    """
    n = len(lplus)
    if n < 2:
        raise InvalidInputError("split_holdout requires at least 2 variants")
    check_count("seed", seed, minimum=0)
    check_real("fraction", fraction, "(0,1)")
    n_train = ceil(fraction * n)
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    train_idx = sorted(order[:n_train].tolist())
    holdout_idx = sorted(order[n_train:].tolist())
    variants = lplus.variants
    train = UniqueVariantLog(tuple(variants[i] for i in train_idx))
    holdout = UniqueVariantLog(tuple(variants[i] for i in holdout_idx))
    return train, holdout


def synth_event_log(variants: Iterable[Variant], seed: int = 0) -> EventLog:
    """Build a synthetic log with exactly one trace per variant.

    Timestamps are fixed-epoch plus one-second steps, which satisfies the
    strict-ordering invariant without pretending to model real durations.
    The seed only shuffles trace order.
    """
    unique = sorted(set(tuple(v) for v in variants))
    if not unique:
        raise InvalidInputError("synth_event_log requires a non-empty variant set")
    if any(len(v) == 0 for v in unique):
        raise InvalidInputError("variants must be non-empty")
    check_count("seed", seed, minimum=0)
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(unique))
    stamps = [SYNTH_EPOCH + timedelta(seconds=j) for j in range(max(map(len, unique)))]
    traces = []
    for case_no, idx in enumerate(order.tolist()):
        v = unique[idx]
        events = tuple(map(EventInstance, v, stamps))
        traces.append(Trace(case_id=f"case_{case_no + 1:05d}", events=events))
    return EventLog(tuple(traces))


# ---------------------------------------------------------------------------
# External formats: event-log CSV and variant TSV
# ---------------------------------------------------------------------------

CSV_HEADER = ["case_id", "activity", "timestamp"]


def _parse_timestamp(raw: str) -> datetime:
    text = raw.strip()
    if text.endswith("Z"):
        text = text[:-1] + "+00:00"
    try:
        return datetime.fromisoformat(text)
    except ValueError as exc:
        raise InvalidInputError(f"unparseable ISO-8601 timestamp: {raw!r}") from exc


def _utf8_lines(path: str | Path, what: str, newline: str | None = None) -> Iterator[str]:
    """The lines of a text file; bytes that are not UTF-8 are a domain error.

    A leading UTF-8 byte-order mark is dropped, as spreadsheet exports write one.
    """
    try:
        with open(path, newline=newline, encoding="utf-8-sig") as fh:
            yield from fh
    except UnicodeDecodeError as exc:
        raise InvalidInputError(f"{what} {str(path)!r} is not UTF-8 text: {exc}") from exc


def read_event_log_csv(path: str | Path) -> EventLog:
    """Read `case_id,activity,timestamp` rows; rows may arrive ungrouped.

    Rows are sorted by case id then timestamp.  A malformed timestamp, or a
    log that mixes naive and offset-aware timestamps, is a hard error:
    silent data corruption is worse than rejection.
    """
    rows: list[tuple[str, str, datetime]] = []
    reader = csv.reader(_utf8_lines(path, "event log", newline=""))
    header = next(reader, None)
    if header is None or [h.strip() for h in header] != CSV_HEADER:
        raise InvalidInputError(
            f"expected header {','.join(CSV_HEADER)!r}, got {header!r}"
        )
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != 3:
            raise InvalidInputError(f"line {lineno}: expected 3 columns, got {len(row)}")
        case_id, activity, ts = row
        rows.append((case_id, activity, _parse_timestamp(ts)))
    if not rows:
        raise InvalidInputError(f"event log {path} contains no rows")
    if len({ts.tzinfo is None for _, _, ts in rows}) > 1:
        raise InvalidInputError(f"event log {path} mixes naive and offset-aware timestamps")
    rows.sort(key=lambda r: (r[0], r[2]))
    return EventLog(tuple(
        Trace(case_id=case_id, events=tuple(EventInstance(label, ts) for _, label, ts in group))
        for case_id, group in groupby(rows, key=itemgetter(0))
    ))


def write_event_log_csv(log: EventLog, path: str | Path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for trace in log.traces:
            for event in trace.events:
                writer.writerow([trace.case_id, event.label, event.timestamp.isoformat()])


def read_variants_tsv(path: str | Path) -> tuple[Variant, ...]:
    """One variant per line, labels separated by TAB."""
    variants: list[Variant] = []
    for lineno, line in enumerate(_utf8_lines(path, "variant file"), start=1):
        line = line.rstrip("\n")
        if not line:
            continue
        labels = tuple(line.split("\t"))
        if any(not lbl for lbl in labels):
            raise InvalidInputError(f"line {lineno}: empty label")
        variants.append(labels)
    if not variants:
        raise InvalidInputError(f"variant file {path} is empty")
    return tuple(variants)


def write_variants_tsv(variants: Iterable[Variant], path: str | Path) -> None:
    ordered = sorted(set(tuple(v) for v in variants))
    with open(path, "w", encoding="utf-8") as fh:
        for v in ordered:
            fh.write("\t".join(v) + "\n")
