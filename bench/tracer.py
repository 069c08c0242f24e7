"""Spans recorded from outside the package, around its public functions.

``Tracer.install()`` replaces each traced function at every module
attribute through which the package (or the benchmark) looks it up, and
``uninstall()`` puts the originals back.  Spans are kept in memory as
``(name, start, end, parent, attrs)`` and written out as JSONL when the
run ends.  Nothing here changes a function's arguments or results, so a
traced pass must produce the same report bytes as an untraced one.
"""

from __future__ import annotations

import functools
import json
import math
import time
from collections import defaultdict

# (span name, modules whose attribute is replaced, attribute name).  Each
# function is wrapped once and the same wrapper is bound at every listed
# module, because `from .x import f` copies the binding into the importer.
TRACED = (
    ("systems.build_system", ("systems",), "build_system"),
    ("experiment.run_experiment", ("experiment",), "run_experiment"),
    ("petri.playout_enumerate", ("petri", "systems"), "playout_enumerate"),
    ("petri.trace_model", ("petri",), "trace_model"),
    ("petri.flower_model", ("petri",), "flower_model"),
    ("petri.dfg_discover", ("petri",), "dfg_discover"),
    ("logs.synth_event_log", ("logs", "experiment", "conformance"), "synth_event_log"),
    ("logs.build_variant_logs", ("logs", "experiment", "conformance"), "build_variant_logs"),
    ("metrics.split_system", ("metrics",), "split_system"),
    ("metrics.compute_rates", ("metrics",), "compute_rates"),
    ("stats.normality_gate", ("stats",), "normality_gate"),
    ("genmodel.train_and_select", ("genmodel",), "train_and_select"),
    ("genmodel.fit_mle", ("genmodel",), "fit_mle"),
    ("genmodel.train_discriminator", ("genmodel",), "train_discriminator"),
    ("genmodel.sample_variant", ("genmodel",), "sample_variant"),
    ("genmodel.score", ("genmodel",), "score"),
    ("losses.loss_gradient", ("losses",), "loss_gradient"),
    ("sampling.naive_sample", ("sampling",), "naive_sample"),
    ("sampling.mh_sample", ("sampling",), "mh_sample"),
    ("sampling.mh_chain_candidate", ("sampling",), "mh_chain_candidate"),
)

# The net kind comes from the constructor that built the net.
NET_KINDS = {
    "petri.trace_model": "trace",
    "petri.flower_model": "flower",
    "petri.dfg_discover": "dfg",
    "systems.build_system": "system",
}
KINDS = ("trace", "dfg", "flower", "system")


def _describe_playout(result) -> dict:
    return {"variants": len(result)}


def _describe_training(result) -> dict:
    size = result.config.select_sample_size
    return {"distinct_ratios": [c.sample_count / size for c in result.candidates]}


def _describe_sample(result) -> dict:
    return {
        "distinct": len(result.v_hat_s),
        "draws": result.draw_count,
        "acceptance_rate": result.acceptance_rate,
    }


# Attributes read from a function's result, for ratios of useful outcomes.
DESCRIBE = {
    "petri.playout_enumerate": _describe_playout,
    "genmodel.train_and_select": _describe_training,
    "sampling.naive_sample": _describe_sample,
    "sampling.mh_sample": _describe_sample,
}
BASELINES = ("petri.trace_model", "petri.flower_model", "petri.dfg_discover")


class Tracer:
    """In-memory span collector that patches the package's module attributes."""

    def __init__(self, package):
        self.pkg = package
        self.spans: list[list] = []  # [name, start, end, parent index, attrs]
        self.stack: list[int] = []
        self.net_kind: dict[int, tuple[str, object]] = {}
        self._saved: list[tuple[object, str, object]] = []

    # -- span recording -------------------------------------------------
    def _open(self, name: str, attrs: dict | None = None) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, attrs])
        index = len(self.spans) - 1
        self.stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self.stack.pop()

    def wrap(self, name: str, fn):
        tracer = self
        kind = NET_KINDS.get(name)
        describe = DESCRIBE.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(index)
            if kind is not None:
                tracer.net_kind[id(result)] = (kind, result)
            if describe is not None:
                tracer.spans[index][4] = describe(result)
            return result

        return traced

    def _wrap_conformance(self, name: str, fn):
        """Replay/precision spans carry the net kind and the distinct variant count."""
        tracer = self

        @functools.wraps(fn)
        def traced(net, lstar):
            kind = tracer.net_kind.get(id(net), ("other", None))[0]
            attrs = {"kind": kind, "variants": len(set(lstar))}
            index = tracer._open(name, attrs)
            try:
                return fn(net, lstar)
            finally:
                tracer._close(index)

        return traced

    def _wrap_compiled_net(self, cls):
        tracer = self

        class TracedCompiledNet(cls):
            def __init__(self, *args, **kwargs):
                index = tracer._open("petri.CompiledNet")
                try:
                    super().__init__(*args, **kwargs)
                finally:
                    tracer._close(index)

        TracedCompiledNet.__name__ = cls.__name__
        TracedCompiledNet.__qualname__ = cls.__qualname__
        return TracedCompiledNet

    # -- patching -------------------------------------------------------
    def _set(self, module, attr: str, value) -> None:
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def install(self) -> None:
        mods = {m: getattr(self.pkg, m) for m in (
            "systems", "experiment", "petri", "logs", "metrics", "stats",
            "genmodel", "losses", "sampling", "conformance",
        )}
        for name, modules, attr in TRACED:
            present = [mods[m] for m in modules if hasattr(mods[m], attr)]
            if not present:
                continue
            wrapped = self.wrap(name, getattr(present[0], attr))
            for module in present:
                self._set(module, attr, wrapped)
        conf = mods["conformance"]
        fitness = self._wrap_conformance("conformance.token_replay_fitness",
                                         conf.token_replay_fitness)
        precision = self._wrap_conformance("conformance.etc_precision", conf.etc_precision)
        self._set(conf, "token_replay_fitness", fitness)
        self._set(conf, "etc_precision", precision)
        # model_generalization binds both scorers as default arguments, so the
        # wrapper passes the traced ones in unless the caller chose others.
        base = conf.model_generalization
        tracer = self

        @functools.wraps(base)
        def model_generalization(net, v_hat_s, fitness_fn=fitness, precision_fn=precision):
            index = tracer._open("conformance.model_generalization")
            try:
                return base(net, v_hat_s, fitness_fn, precision_fn)
            finally:
                tracer._close(index)

        self._set(conf, "model_generalization", model_generalization)
        compiled = self._wrap_compiled_net(mods["petri"].CompiledNet)
        for module in (mods["petri"], conf):
            if hasattr(module, "CompiledNet"):
                self._set(module, "CompiledNet", compiled)

    def uninstall(self) -> None:
        while self._saved:
            module, attr, value = self._saved.pop()
            setattr(module, attr, value)
        self.net_kind.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- output ---------------------------------------------------------
    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, attrs) in enumerate(self.spans):
                row = {"id": i, "name": name, "start": start, "end": end, "parent": parent}
                if attrs:
                    row["attrs"] = attrs
                fh.write(json.dumps(row) + "\n")


def _percentile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer counts and times from one traced pass.

    ``s`` is inclusive time and ``self_s`` the time not covered by direct
    child spans.  Counts for a function that did not run are 0.
    """
    calls: dict[str, int] = defaultdict(int)
    total: dict[str, float] = defaultdict(float)
    child: dict[int, float] = defaultdict(float)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    self_time: dict[str, float] = defaultdict(float)
    by_parent_kind: dict[str, float] = defaultdict(float)
    variants: dict[str, int] = defaultdict(int)
    distinct: dict[str, int] = defaultdict(int)
    draws: dict[str, int] = defaultdict(int)
    selection_ratios: list[float] = []
    acceptance: list[float] = []
    chain_ms: list[float] = []

    def ancestor(i: int, names: tuple[str, ...]) -> str | None:
        p = spans[i][3]
        while p >= 0:
            if spans[p][0] in names:
                return spans[p][0]
            p = spans[p][3]
        return None

    phase_of = {
        "genmodel.train_and_select": "in_train",
        "sampling.naive_sample": "in_naive",
        "sampling.mh_sample": "in_mh",
    }
    for i, (name, start, end, parent, attrs) in enumerate(spans):
        dur = end - start
        calls[name] += 1
        total[name] += dur
        self_time[name] += dur - child[i]
        attrs = attrs or {}
        if "kind" in attrs:
            by_parent_kind[f"{name}.{attrs['kind']}"] += dur
        variants[name] += attrs.get("variants", 0)
        distinct[name] += attrs.get("distinct", 0)
        draws[name] += attrs.get("draws", 0)
        selection_ratios.extend(attrs.get("distinct_ratios", ()))
        if attrs.get("acceptance_rate") is not None:
            acceptance.append(attrs["acceptance_rate"])
        if name in ("genmodel.sample_variant", "genmodel.score"):
            phase = ancestor(i, tuple(phase_of))
            if phase is not None:
                key = f"{name}.{phase_of[phase]}"
                calls[key] += 1
                total[key] += dur
        elif name == "sampling.mh_chain_candidate":
            chain_ms.append(dur * 1e3)

    def per(num: float, den: float, scale: float = 1.0) -> float:
        return num / den * scale if den else 0.0

    m: dict[str, float] = {}
    name = "petri.playout_enumerate"
    m[f"{name}.calls"] = calls[name]
    m[f"{name}.self_s"] = self_time[name]
    m[f"{name}.variants"] = variants[name]
    m[f"{name}.variants_per_s"] = per(variants[name], total[name])
    m["petri.CompiledNet.calls"] = calls["petri.CompiledNet"]
    m["petri.CompiledNet.s"] = total["petri.CompiledNet"]
    m["petri.baselines.s"] = sum(total[b] for b in BASELINES)

    m["conformance.model_generalization.calls"] = calls["conformance.model_generalization"]
    m["conformance.model_generalization.s"] = total["conformance.model_generalization"]
    name = "conformance.token_replay_fitness"
    m[f"{name}.calls"] = calls[name]
    m[f"{name}.self_s"] = self_time[name]
    m[f"{name}.variants"] = variants[name]
    m[f"{name}.ms_per_variant"] = per(total[name], variants[name], 1e3)
    name = "conformance.etc_precision"
    m[f"{name}.calls"] = calls[name]
    m[f"{name}.self_s"] = self_time[name]
    for fn in ("token_replay_fitness", "etc_precision"):
        for kind in KINDS:
            m[f"conformance.{fn}.{kind}.s"] = by_parent_kind[f"conformance.{fn}.{kind}"]

    name = "genmodel.train_and_select"
    m[f"{name}.calls"] = calls[name]
    m[f"{name}.s"] = total[name]
    m[f"{name}.self_s"] = self_time[name]
    m["genmodel.fit_mle.s"] = total["genmodel.fit_mle"]
    m["genmodel.train_discriminator.calls"] = calls["genmodel.train_discriminator"]
    m["genmodel.train_discriminator.s"] = total["genmodel.train_discriminator"]
    name = "genmodel.sample_variant"
    m[f"{name}.calls"] = calls[name]
    m[f"{name}.s"] = total[name]
    m[f"{name}.us_per_call"] = per(total[name], calls[name], 1e6)
    for phase in ("in_train", "in_naive", "in_mh"):
        m[f"{name}.{phase}.calls"] = calls[f"{name}.{phase}"]
        m[f"{name}.{phase}.s"] = total[f"{name}.{phase}"]
    name = "genmodel.score"
    m[f"{name}.calls"] = calls[name]
    m[f"{name}.s"] = total[name]
    m[f"{name}.us_per_call"] = per(total[name], calls[name], 1e6)
    m[f"{name}.in_train.s"] = total[f"{name}.in_train"]
    m[f"{name}.in_mh.s"] = total[f"{name}.in_mh"]
    m["genmodel.selection.distinct_ratio"] = per(sum(selection_ratios), len(selection_ratios))

    m["losses.loss_gradient.calls"] = calls["losses.loss_gradient"]
    m["losses.loss_gradient.s"] = total["losses.loss_gradient"]

    for name in ("sampling.naive_sample", "sampling.mh_sample"):
        m[f"{name}.calls"] = calls[name]
        m[f"{name}.s"] = total[name]
        m[f"{name}.self_s"] = self_time[name]
    naive, mh = "sampling.naive_sample", "sampling.mh_sample"
    m["sampling.naive.distinct_ratio"] = per(distinct[naive], draws[naive])
    m["sampling.mh_chain_candidate.calls"] = len(chain_ms)
    m["sampling.mh_chain_candidate.ms.p50"] = _percentile(chain_ms, 0.5)
    m["sampling.mh_chain_candidate.ms.p90"] = _percentile(chain_ms, 0.9)
    m["sampling.mh.acceptance_rate"] = per(sum(acceptance), len(acceptance))
    m["sampling.mh.novel_per_chain"] = per(distinct[mh], len(chain_ms))

    m["metrics.compute_rates.calls"] = calls["metrics.compute_rates"]
    m["metrics.compute_rates.s"] = total["metrics.compute_rates"]
    m["metrics.split_system.s"] = total["metrics.split_system"]
    m["stats.normality_gate.calls"] = calls["stats.normality_gate"]
    m["stats.normality_gate.s"] = total["stats.normality_gate"]
    for name in ("logs.synth_event_log", "logs.build_variant_logs", "systems.build_system"):
        m[f"{name}.calls"] = calls[name]
        m[f"{name}.s"] = total[name]
    m["experiment.run_experiment.s"] = total["experiment.run_experiment"]
    m["experiment.run_experiment.self_s"] = self_time["experiment.run_experiment"]
    return m
