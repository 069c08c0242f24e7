from __future__ import annotations

import builtins
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genmine import (
    EventInstance,
    EventLog,
    InvalidInputError,
    Trace,
    UniqueVariantLog,
    build_variant_logs,
    read_event_log_csv,
    read_variants_tsv,
    split_holdout,
    synth_event_log,
    variant_of,
    write_event_log_csv,
    write_variants_tsv,
)
from genmine import logs

from .conftest import EPOCH, log_from_variants, trace_from_labels


class TestVariantOf:
    def test_direct_projection(self):
        assert variant_of(trace_from_labels(["a", "b"])) == ("a", "b")

    def test_single_event(self):
        assert variant_of(trace_from_labels(["a"])) == ("a",)

    def test_duplicate_labels_order_preserved(self):
        assert variant_of(trace_from_labels(["a", "a", "b"])) == ("a", "a", "b")

    def test_length_preservation(self):
        t = trace_from_labels(list("abcde"))
        assert len(variant_of(t)) == len(t)


class TestTraceInvariants:
    def test_empty_trace_rejected(self):
        with pytest.raises(InvalidInputError):
            Trace(case_id="c", events=())

    def test_equal_timestamps_rejected(self):
        ts = datetime(2021, 1, 1, tzinfo=timezone.utc)
        with pytest.raises(InvalidInputError):
            Trace(case_id="c", events=(EventInstance("a", ts), EventInstance("b", ts)))

    def test_decreasing_timestamps_rejected(self):
        events = trace_from_labels(["a", "b"]).events
        with pytest.raises(InvalidInputError):
            Trace(case_id="c", events=(events[1], events[0]))


class TestBuildVariantLogs:
    def test_basic_dedup(self):
        lstar, lplus = build_variant_logs(
            log_from_variants([["a", "b"], ["a", "b"], ["a", "c"]])
        )
        assert len(lstar) == 3
        assert tuple(lplus) == (("a", "b"), ("a", "c"))

    def test_all_identical(self):
        lstar, lplus = build_variant_logs(log_from_variants([["a"]] * 7))
        assert len(lstar) == 7
        assert len(lplus) == 1

    def test_first_occurrence_order(self):
        _, lplus = build_variant_logs(log_from_variants([["b"], ["a"], ["b"]]))
        assert tuple(lplus) == (("b",), ("a",))


class TestSplitHoldout:
    def _lplus(self, n):
        return UniqueVariantLog(tuple((f"a{i}",) for i in range(n)))

    def test_exact_split(self):
        train, holdout = split_holdout(self._lplus(10), 0.9, seed=1)
        assert len(train) == 9 and len(holdout) == 1

    def test_deterministic(self):
        a = split_holdout(self._lplus(20), 0.8, seed=42)
        b = split_holdout(self._lplus(20), 0.8, seed=42)
        assert a[0].variants == b[0].variants and a[1].variants == b[1].variants

    def test_ceil_convention_124(self):
        train, holdout = split_holdout(self._lplus(124), 0.9, seed=0)
        assert len(train) == 112 and len(holdout) == 12

    def test_too_small_rejected(self):
        with pytest.raises(InvalidInputError):
            split_holdout(self._lplus(1), 0.9, seed=0)

    @given(st.integers(min_value=2, max_value=60), st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_partition_property(self, n, seed):
        lplus = self._lplus(n)
        train, holdout = split_holdout(lplus, 0.9, seed=seed)
        assert set(train) | set(holdout) == set(lplus)
        assert not (set(train) & set(holdout))

    def test_partition_over_thousand_seeds(self):
        lplus = self._lplus(17)
        full = set(lplus)
        for seed in range(1000):
            train, holdout = split_holdout(lplus, 0.9, seed=seed)
            assert set(train) | set(holdout) == full
            assert not (set(train) & set(holdout))


class TestSynthEventLog:
    def test_single_variant(self):
        log = synth_event_log({("a",)})
        assert len(log) == 1 and len(log.traces[0]) == 1

    def test_round_trip(self):
        variants = {("a", "b"), ("a", "c")}
        log = synth_event_log(variants)
        assert len(log) == 2
        _, lplus = build_variant_logs(log)
        assert lplus.as_set() == variants

    def test_sizing_rule(self):
        variants = {(f"a{i}",) for i in range(178)}
        assert len(synth_event_log(variants)) == 178

    def test_empty_rejected(self):
        with pytest.raises(InvalidInputError):
            synth_event_log(set())

    @given(
        st.sets(
            st.lists(st.sampled_from("abcd"), min_size=1, max_size=5).map(tuple),
            min_size=1,
            max_size=12,
        ),
        st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=100, deadline=None)
    def test_round_trip_property(self, variants, seed):
        log = synth_event_log(variants, seed=seed)
        _, lplus = build_variant_logs(log)
        assert lplus.as_set() == frozenset(variants)


    def test_traces_share_each_event(self):
        # One frozen event per (position, label); the log equals one built
        # with an event per trace and position.
        variants = [("a", "b", "c"), ("a", "c"), ("b", "b"), ("a", "b")]
        log = synth_event_log(variants, seed=3)
        order = np.random.default_rng(3).permutation(len(variants)).tolist()
        ordered = sorted(variants)
        assert log == EventLog(tuple(
            Trace(f"case_{i + 1:05d}", tuple(
                EventInstance(label, logs.SYNTH_EPOCH + timedelta(seconds=j))
                for j, label in enumerate(ordered[k])))
            for i, k in enumerate(order)))
        first = {}
        for trace in log:
            for j, event in enumerate(trace.events):
                assert first.setdefault((j, event.label), event) is event
        assert len(first) == 5


class TestCsvInterface:
    def test_round_trip(self, tmp_path):
        log = log_from_variants([["a", "b"], ["c"]])
        path = tmp_path / "log.csv"
        write_event_log_csv(log, path)
        back = read_event_log_csv(path)
        lstar_a, _ = build_variant_logs(log)
        lstar_b, _ = build_variant_logs(back)
        assert lstar_a.variants == lstar_b.variants

    def test_rows_sorted_by_case_then_time(self, tmp_path):
        path = tmp_path / "log.csv"
        path.write_text(
            "case_id,activity,timestamp\n"
            "c2,x,2021-01-01T00:00:00+00:00\n"
            "c1,b,2021-01-01T00:00:05+00:00\n"
            "c1,a,2021-01-01T00:00:01+00:00\n"
        )
        log = read_event_log_csv(path)
        lstar, _ = build_variant_logs(log)
        assert lstar.variants == (("a", "b"), ("x",))

    def test_bad_timestamp_is_hard_error(self, tmp_path):
        path = tmp_path / "log.csv"
        path.write_text("case_id,activity,timestamp\nc1,a,not-a-time\n")
        with pytest.raises(InvalidInputError):
            read_event_log_csv(path)

    def test_zulu_suffix_accepted(self, tmp_path):
        path = tmp_path / "log.csv"
        path.write_text("case_id,activity,timestamp\nc1,a,2021-01-01T00:00:00Z\n")
        log = read_event_log_csv(path)
        assert variant_of(log.traces[0]) == ("a",)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "log.csv"
        path.write_text("case,activity,time\nc1,a,2021-01-01T00:00:00Z\n")
        with pytest.raises(InvalidInputError):
            read_event_log_csv(path)

    def test_byte_order_mark_is_dropped(self, tmp_path):
        path = tmp_path / "log.csv"
        path.write_bytes(b"\xef\xbb\xbfcase_id,activity,timestamp\nc1,a,2021-01-01T00:00:00Z\n")
        log = read_event_log_csv(path)
        assert variant_of(log.traces[0]) == ("a",)


class TestVariantTsv:
    def test_round_trip(self, tmp_path):
        variants = {("a", "b"), ("c",)}
        path = tmp_path / "v.tsv"
        write_variants_tsv(variants, path)
        assert set(read_variants_tsv(path)) == variants

    def test_byte_order_mark_is_dropped(self, tmp_path):
        path = tmp_path / "v.tsv"
        path.write_bytes(b"\xef\xbb\xbfa\tb\nc\n")
        assert read_variants_tsv(path) == (("a", "b"), ("c",))


class TestDomainErrors:
    @pytest.mark.parametrize("call, message", [
        (lambda: EventInstance("", EPOCH), "event label must be non-empty"),
        (lambda: UniqueVariantLog((("a",), ("b",), ("a",))),
         "unique variant log contains repeats"),
        (lambda: variant_of(("a", "b")), "variant_of requires a non-empty trace"),
        (lambda: build_variant_logs(EventLog(())), "build_variant_logs requires a non-empty log"),
        (lambda: synth_event_log([("a",), ()]), "variants must be non-empty"),
    ], ids=["empty_label", "repeated_variant", "not_a_trace", "empty_log", "empty_variant"])
    def test_bad_value(self, call, message):
        with pytest.raises(InvalidInputError) as info:
            call()
        assert str(info.value) == message

    @pytest.mark.parametrize("reader, text, message", [
        (read_event_log_csv, "case_id,activity,timestamp\nc1,a\n",
         "line 2: expected 3 columns, got 2"),
        (read_event_log_csv, "case_id,activity,timestamp\n\n", "event log {path} contains no rows"),
        (read_variants_tsv, "a\tb\na\t\tb\n", "line 2: empty label"),
        (read_variants_tsv, "\n\n", "variant file {path} is empty"),
    ], ids=["short_csv_row", "csv_without_rows", "tsv_empty_label", "empty_tsv"])
    def test_bad_file(self, tmp_path, reader, text, message):
        path = tmp_path / "input.txt"
        path.write_text(text)
        with pytest.raises(InvalidInputError) as info:
            reader(path)
        assert str(info.value) == message.format(path=path)

    @pytest.mark.parametrize("reader, text", [
        (read_event_log_csv, "case_id,activity,timestamp\nc1,a\nc2,b,2021-01-01T00:00:00Z\n"),
        (read_event_log_csv,
         "case_id,activity,timestamp\nc1,a,not-a-time\nc2,b,2021-01-01T00:00:00Z\n"),
        (read_variants_tsv, "a\tb\na\t\tb\nc\n"),
    ], ids=["short_csv_row", "bad_timestamp", "tsv_empty_label"])
    def test_reader_closes_its_file_before_raising(self, tmp_path, monkeypatch, reader, text):
        # The error is kept, as a caller's traceback keeps it; the file it
        # was read from is closed all the same.
        path = tmp_path / "input.txt"
        path.write_text(text)
        opened = []

        def spy_open(*args, **kwargs):
            opened.append(builtins.open(*args, **kwargs))
            return opened[-1]

        monkeypatch.setattr(logs, "open", spy_open, raising=False)
        with pytest.raises(InvalidInputError) as info:
            reader(path)
        assert info.value.__traceback__ is not None
        assert len(opened) == 1 and opened[0].closed
