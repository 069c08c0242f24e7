"""genmine benchmark: one command per workload, metrics on the last line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/`` of that checkout and nothing else.  Workloads (see workloads.py):
``desk_naive``, ``desk_mh``, ``net_scoring`` and ``playout``.

Load model: a closed loop with one client.  One process, pinned to one
CPU, runs passes of the workload back to back, with ``jobs=1`` and BLAS
pinned to one thread, for at least ``--seconds`` seconds and at least
``MIN_PASSES`` passes.  A pass is a fixed sequence of short named steps
(workloads.py), and each step runs between two runs of a fixed reference
loop (see ``StepTimer``).  ``wall_ref`` is the median over passes of the
pass time in units of that loop, so that the host's changing speed
cancels out; ``ops_per_ref`` is work units over ``wall_ref``.  The pass
times in seconds and the loop's own times are recorded on the line before
the result.  Each child process is fresh, so set-up time and peak RSS
belong to the workload alone.  ``setup_s`` is measured from the start of a
child process to the end of set-up, in up to ``SETUP_SAMPLES`` processes,
and its median is reported.

With ``--trace 0`` the last line holds the end-to-end metrics.  With
``--trace 1`` the child records spans around the package's public functions
(tracer.py) during set-up and during every second pass, checks that each
traced pass's report bytes equal the untraced ones, writes the spans of
set-up and the first traced pass to ``bench/out/`` as JSONL and reports
per-layer metrics from them.  ``trace.overhead_s`` is the median difference
between a traced pass and the untraced pass before it.  Every pass's
outputs are checked; ``correct`` is false if any check fails.  The line
before the last one records the environment, the wall-time samples and the
quality figures.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

MIN_PASSES = 3
REF_LOOP_ITERATIONS = 2_000  # about 1.6 ms on a 2-vCPU x86 VM
SETUP_SAMPLES = 7
# The whole command ends within DEADLINE_S when --seconds is at most
# BASE_SECONDS; each second beyond that moves the deadline out by three.
DEADLINE_S = 170.0
BASE_SECONDS = 20.0
DEADLINE_MARGIN_S = 5.0
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("desk_naive", "desk_mh", "net_scoring", "playout"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs, for the benchmark's self-test")
    ap.add_argument("--child", choices=("setup", "measure"), help=argparse.SUPPRESS)
    ap.add_argument("--t0", type=float, help=argparse.SUPPRESS)
    ap.add_argument("--deadline", type=float, help=argparse.SUPPRESS)
    return ap.parse_args(argv)


# ---------------------------------------------------------------------------
# Child process: set up, run passes, report one JSON line
# ---------------------------------------------------------------------------

def import_package():
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(BENCH))
    import genmine
    import genmine.errors  # noqa: F401  (submodules are reached as attributes)

    origin = Path(genmine.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise SystemExit(f"genmine imported from {origin}, not from {SRC}")
    return genmine


def pin_cpu() -> None:
    """Keep this process on one CPU, so the scheduler does not move it."""
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpus[-1]})


REF_VEC = None  # set on first use, so the reference loop imports numpy lazily


def reference_loop_s() -> float:
    """Time of a fixed loop of the kinds of work the package does, in s.

    Tuple-keyed dict updates, small frozensets and a small numpy product, as
    in the marking core, the n-gram tables and the discriminator.  It does
    not call the package, so its time follows only the host's speed.
    """
    global REF_VEC
    if REF_VEC is None:
        import numpy as np

        REF_VEC = np.arange(16.0)
    t = time.perf_counter()
    seen: dict = {}
    acc = 0.0
    for i in range(REF_LOOP_ITERATIONS):
        key = (i % 97, i % 13, "a")
        seen[key] = seen.get(key, 0) + 1
        acc += len(frozenset(key))
        if i % 20 == 0:
            acc += float(REF_VEC @ REF_VEC)
    return time.perf_counter() - t


class StepTimer:
    """Times the named steps of each pass, in seconds and in reference loops.

    On a shared host the same code runs up to twice as slowly from one
    second to the next, in stretches of a fraction of a second up to
    minutes, because of load this benchmark cannot see; CPU time grows with
    wall time, so the slowdown is outside the process.  Each step is
    therefore bracketed by two runs of ``reference_loop_s`` and its time is
    also expressed in units of their mean: a slow stretch lengthens the step
    and the loop alike, so the ratio follows the program, not the host.
    """

    def __init__(self):
        self.pass_s = 0.0
        self.pass_ref = 0.0
        self.ref_s: list[float] = []

    def __call__(self, name: str, fn, *args, **kwargs):
        before = reference_loop_s()
        t = time.perf_counter()
        result = fn(*args, **kwargs)
        elapsed = time.perf_counter() - t
        ref = (before + reference_loop_s()) / 2
        self.ref_s.append(ref)
        self.pass_s += elapsed
        self.pass_ref += elapsed / ref
        return result

    def end_pass(self) -> tuple[float, float]:
        """Seconds and reference loops of the pass just run, summed over its steps."""
        done = (self.pass_s, self.pass_ref)
        self.pass_s = self.pass_ref = 0.0
        return done


def child(args) -> dict:
    pin_cpu()
    pkg = import_package()
    import numpy as np
    import scipy
    import workloads

    setup, run, check = workloads.WORKLOADS[args.workload]
    if args.trace:
        from tracer import Tracer, layer_metrics

        # Set-up is traced too, so that work done there (training, for
        # desk_mh) shows in the layer metrics.
        tracer = Tracer(pkg)
        with tracer:
            state = setup(pkg, args.seed, args.smoke)
    else:
        state = setup(pkg, args.seed, args.smoke)
    setup_s = time.monotonic() - args.t0
    if args.child == "setup":
        return {"setup_s": setup_s}

    timer = StepTimer()
    traced_timer = StepTimer()
    walls: list[float] = []
    costs: list[float] = []
    traced_walls: list[float] = []
    first = None
    problems: list[str] = []
    started = time.perf_counter()
    while True:
        gc.collect()  # garbage from the pass before is not charged to this one
        outcome = run(pkg, state, timer)
        wall, cost = timer.end_pass()
        walls.append(wall)
        costs.append(cost)
        if first is None:
            first = outcome
            problems += check(pkg, state, outcome, args.seed)
        elif outcome.report != first.report:
            problems.append(f"pass {len(walls)} report differs from pass 1")
        if args.trace:
            # Traced and untraced passes alternate, so that the overhead is
            # a difference of neighbouring passes.  Only the spans of set-up
            # and the first traced pass are kept for the layer metrics.
            kept = len(tracer.spans)
            gc.collect()
            with tracer:
                traced = run(pkg, state, traced_timer)
            traced_walls.append(traced_timer.end_pass()[0])
            if traced.report != first.report:
                problems.append(f"traced pass {len(traced_walls)} report differs "
                                "from the untraced one")
            if len(traced_walls) > 1:
                del tracer.spans[kept:]
        elapsed = time.perf_counter() - started
        per_pass = elapsed / len(walls)
        if len(walls) >= MIN_PASSES and elapsed >= args.seconds:
            break
        # Past the deadline a slower program would abort with no metrics;
        # stopping early reports it as the regression it is.
        if time.monotonic() + 1.5 * per_pass > args.deadline:
            break
    result = {
        "setup_s": setup_s,
        "walls": walls,
        "costs": costs,
        "ref_s": timer.ref_s,
        "units": first.units,
        "items": first.items * len(walls),
        "failed": first.failed * len(walls),
        "quality": first.quality,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": {"numpy": np.__version__, "scipy": scipy.__version__},
    }
    if args.trace:
        OUT.mkdir(exist_ok=True)
        tracer.write_jsonl(OUT / f"trace_{args.workload}_seed{args.seed}.jsonl")
        layers = layer_metrics(tracer.spans)
        layers["trace.overhead_s"] = statistics.median(
            traced - plain for traced, plain in zip(traced_walls, walls)
        )
        result["layers"] = layers
        result["traced_walls"] = traced_walls
    result["problems"] = problems
    return result


# ---------------------------------------------------------------------------
# Parent process: spawn children, assemble the result
# ---------------------------------------------------------------------------

def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown"  # a source checkout without .git has no commit to record
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                timeout=10,
            ).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    src_lines = sum(
        len(p.read_text(encoding="utf-8").splitlines())
        for p in sorted((SRC / "genmine").glob("*.py"))
    )
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "commit": commit,
        "src_genmine_lines": src_lines,
    }


def spawn(args, mode: str, deadline: float) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--child", mode, "--t0", repr(time.monotonic()),
           "--deadline", repr(deadline - DEADLINE_MARGIN_S)]
    if args.smoke:
        cmd.append("--smoke")
    env = {**os.environ, **THREAD_ENV}
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise SystemExit(f"{args.workload}: {mode} process ran past the deadline")
    if proc.returncode != 0:
        raise SystemExit(f"{args.workload}: {mode} process exited with {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def tail_percentile(values: list[float]) -> dict:
    """The highest percentile with at least ten samples above it, else the maximum."""
    n = len(values)
    if n < 20:
        return {"samples": n, "percentile": 100, "value": max(values)}
    pct = int(100 * (1 - 10 / n))
    value = statistics.quantiles(values, n=100, method="inclusive")[pct - 1]
    return {"samples": n, "percentile": pct, "value": value}


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.child:
        print(json.dumps(child(args)))
        return 0
    if not (SRC / "genmine" / "__init__.py").is_file():
        print(f"no package source at {SRC / 'genmine'}", file=sys.stderr)
        return 2
    # Set-up processes run before and after the measuring one, so that the
    # samples span the whole run rather than one stretch of it.  Those
    # after it run only while each still fits before the deadline, so that
    # a slow program yields fewer set-up samples instead of no result.
    deadline = time.monotonic() + DEADLINE_S + 3 * max(0.0, args.seconds - BASE_SECONDS)

    def fits(seconds: float) -> bool:
        return time.monotonic() + seconds + DEADLINE_MARGIN_S < deadline

    setups: list[float] = []
    while (not args.trace and len(setups) < SETUP_SAMPLES // 2
           and (not setups or fits(3 * max(setups) + 2 * args.seconds))):
        setups.append(spawn(args, "setup", deadline)["setup_s"])
    res = spawn(args, "measure", deadline)
    setups.append(res["setup_s"])
    while not args.trace and len(setups) < SETUP_SAMPLES and fits(2 * max(setups)):
        setups.append(spawn(args, "setup", deadline)["setup_s"])

    walls = res["walls"]
    wall_ref = statistics.median(res["costs"])
    ref_ms = [r * 1e3 for r in res["ref_s"]]
    if args.trace:
        metrics = {name: {"value": value, "unit": LAYER_UNITS.get(name.rsplit(".", 1)[-1], "count")}
                   for name, value in res["layers"].items()}
        for name in QUALITY:
            metrics[f"quality.{name}"] = {"value": res["quality"].get(name, 0.0), "unit": "ratio"}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "wall_ref": {"value": wall_ref, "unit": "ref"},
            "ops_per_ref": {"value": res["units"] / wall_ref, "unit": "1/ref"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MiB"},
        }
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": {**environment(), **res["versions"]},
        "wall_s": {"median": statistics.median(walls), "passes": walls,
                   **tail_percentile(walls)},
        "wall_ref": {"median": wall_ref, "passes": res["costs"],
                     **tail_percentile(res["costs"])},
        "setup_s_samples": setups,
        "reference_loop_ms": {"median": statistics.median(ref_ms), "min": min(ref_ms),
                              "max": max(ref_ms), "samples": len(ref_ms)},
        "units_per_pass": res["units"],
        "fail_ratio": res["failed"] / res["items"],
        "quality": res["quality"],
        "problems": res["problems"],
    }
    if args.trace:
        info["traced_wall_s"] = res["traced_walls"]
    OUT.mkdir(exist_ok=True)
    record = OUT / f"{args.workload}_seed{args.seed}_trace{args.trace}.json"
    record.write_text(json.dumps({**info, "metrics": metrics}, indent=2) + "\n")
    print(json.dumps(info))
    print(json.dumps({
        "correct": not res["problems"],
        "attempted": res["items"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0


# Output quality, mean over sampler results (tp_u, score_s) or net cells
# (generalization); 0 on workloads that have none.
QUALITY = ("tp_u", "score_s", "generalization")

# Unit of a per-layer metric, by the last part of its name.
LAYER_UNITS = {
    "calls": "count", "variants": "count", "s": "s", "self_s": "s", "overhead_s": "s",
    "variants_per_s": "1/s", "ms_per_variant": "ms", "us_per_call": "us",
    "p50": "ms", "p90": "ms", "distinct_ratio": "ratio", "acceptance_rate": "ratio",
    "novel_per_chain": "ratio",
}


if __name__ == "__main__":
    sys.exit(main())
