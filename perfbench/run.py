"""Pipeline benchmark: one workload, one seed, one run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The benchmark calls the library entry point ``run_pipeline(RunConfig)``
(parse the data files, run every stage, write the outputs atomically) in a
closed loop from one thread, in cycles over the workload's instances, and
checks the outputs of every call (see ``checks.py``).

Times are scaled to a reference host speed, on one pinned CPU.  The shared
host this was tuned on runs everything up to twice as slowly for stretches
of seconds to minutes, in CPU time as much as in wall time, so raw times of
two runs of the same code differ by more than the changes worth catching.
A fixed pure-Python reference loop (``reference_seconds``) runs before and
after every measured call, and the call's wall time is multiplied by
``REF_SECONDS`` over the mean of the two reference times.  On that host the
scaled times stayed within a few percent while raw times doubled.
Set-up time is scaled likewise by a fresh interpreter that only imports
numpy, to ``REF_IMPORT_SECONDS``.  The two constants are the median
reference times over the traced runs of a baseline recording
(``BASELINE.json``, key ``reference``, holds those of the latest one), so
scaled figures read as seconds on the recording host at its median speed,
not as this host's seconds.  Raw times are printed alongside.

``--trace 0`` prints the end-to-end metrics: the median and tail of the
call time, the ``tracemalloc`` peak of one call (its own pass,
because tracing allocations slows Python), the share of calls that passed
their checks, and the set-up time of a fresh interpreter that imports
``templater.cli`` and selects the kernel backend (median of several, spread
over the run).

``--trace 1`` prints the per-layer metrics: cycles over the first
``TRACE_INSTANCES`` instances alternate untraced and traced
(``tracing.py``), then the kernel-layer suite runs (``kernel_suite.py``).
Span figures are per call: median over cycles, mean over instances.  The tracing overhead is the traced minus the untraced
call time.  The spans of the last traced call go to ``.perfbench-out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
only if every check passed.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
FIXTURES = os.path.join(ROOT, "tests", "fixtures")
TRACE_DIR = os.path.join(ROOT, ".perfbench-out")

# Each set-up sample is two interpreter spawns (about 1.2 s); with the median
# of nine, the quartile spread of ``setup_s`` over ten seeds was 0.03-0.11
# (0.11-0.30 with three).
SETUP_REPEATS = 9
REF_IMPORT_REPEATS = 5
# A traced cycle costs twice an untraced one; a subset keeps the traced run
# as long as the untraced one.
TRACE_INSTANCES = 16
SETUP_PROGRAM = "import templater.cli, templater.kernels; templater.kernels.BACKEND"

# Median time of ``reference_seconds`` between pipeline calls (``host.ref_ms``)
# over the traced runs of a baseline recording on a 2-core x86-64 host
# (Python 3.11).
REF_SECONDS = 0.0113
# Set-up is scaled by a fresh interpreter that imports numpy alone, the
# nearest twin of set-up's work that does not depend on the program; its
# median time (``host.ref_import_ms``) in the same recording.
REF_IMPORT_PROGRAM = "import numpy"
REF_IMPORT_SECONDS = 0.215


def is_ms(key: str) -> bool:
    """Whether a per-layer figure is a time in ms (``kernels.ms``, ``*_ms``)."""
    return key.endswith((".ms", "_ms"))


def reference_seconds() -> float:
    """Wall time of a fixed pure-Python graph walk that does not use the program.

    Dict, set, sort and small-integer work, like the pipeline's own.
    """
    started = time.perf_counter()
    adjacency: dict[int, set[int]] = {i: set() for i in range(300)}
    state = 12345
    for _ in range(600):
        state = (state * 1103515245 + 12345) % 2**31
        a, b = state % 300, (state >> 9) % 300
        if a != b:
            adjacency[a].add(b)
            adjacency[b].add(a)
    total = 0
    for root in range(0, 300, 10):
        seen = {root: 0}
        frontier = [root]
        while frontier:
            nxt = []
            for v in frontier:
                for w in sorted(adjacency[v]):
                    if w not in seen:
                        seen[w] = seen[v] + 1
                        nxt.append(w)
            frontier = nxt
        total += sum(seen.values())
    return time.perf_counter() - started


def tail(samples: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it, and that percentile.

    With fewer than eleven samples no percentile qualifies, and the maximum
    stands in.
    """
    ordered = sorted(samples)
    index = len(ordered) - 11 if len(ordered) > 10 else len(ordered) - 1
    return ordered[index], 100.0 * (index + 1) / len(ordered)


def per_instance(cycles: list[list]) -> list:
    """Per instance, the median over the cycles in which it succeeded."""
    medians = []
    for values in zip(*cycles):
        done = [v for v in values if v is not None]
        if done:
            medians.append(statistics.median(done))
    return medians


class Bench:
    """Runs the pipeline on the workload's instances and checks every call."""

    def __init__(self, instances, work_dir: str) -> None:
        from templater import cli

        self.cli = cli
        self.instances = instances
        self.work_dir = work_dir
        self.reports: dict[str, str] = {}
        self.attempted = 0
        self.failures: list[str] = []
        self.raw: list[float] = []
        self.refs: list[float] = []

    def call(self, instance, run=None) -> float | None:
        """One checked pipeline call; its wall time, or None if it failed."""
        from checks import check_run

        out_dir = os.path.join(self.work_dir, "out", instance.name)
        cfg = self.cli.RunConfig(
            reactants=instance.reactants, products=instance.products, out_dir=out_dir
        )
        run = run or self.cli.run_pipeline
        self.attempted += 1
        gc.collect()
        try:
            started = time.perf_counter()
            state = run(cfg)
            elapsed = time.perf_counter() - started
            check_run(instance, state, out_dir, self.reports)
        except Exception as exc:  # noqa: BLE001 - every failure is counted and reported
            self.failures.append(f"{instance.name}: {type(exc).__name__}: {exc}")
            return None
        return elapsed

    def cycle(self, run=None, after=None) -> tuple[list[float | None], list[float]]:
        """One call per instance: scaled call times, and the scale of each call.

        ``after`` is called after each call with its raw time.
        """
        refs = [reference_seconds()]
        raw = []
        for instance in self.instances:
            raw.append(self.call(instance, run))
            if after is not None:
                after(raw[-1])
            refs.append(reference_seconds())
        self.refs += refs
        self.raw += [t for t in raw if t is not None]
        scales = [2 * REF_SECONDS / (a + b) for a, b in zip(refs, refs[1:])]
        return [None if t is None else t * k for t, k in zip(raw, scales)], scales

    def peak_memory_mb(self) -> float:
        """``tracemalloc`` peak of one call, taken before its check runs.

        Peaks of different atom orders differ by under 1%, so the first
        instance stands for all.
        """
        peaks = []

        def measured(cfg):
            tracemalloc.start()
            try:
                state = self.cli.run_pipeline(cfg)
                peaks.append(tracemalloc.get_traced_memory()[1] / 1e6)
                return state
            finally:
                tracemalloc.stop()

        self.call(self.instances[0], measured)
        if not peaks:
            raise RuntimeError("the pipeline call under tracemalloc failed")
        return peaks[0]


def spawn_seconds(program: str) -> float:
    """Wall time of a fresh interpreter running ``program``, ``src`` importable."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    started = time.perf_counter()
    subprocess.run([sys.executable, "-c", program], env=env, cwd=ROOT, check=True, timeout=120)
    return time.perf_counter() - started


def setup_once() -> tuple[float, float]:
    """Scaled and raw set-up time: a fresh interpreter that imports the CLI
    and picks a backend."""
    reference = spawn_seconds(REF_IMPORT_PROGRAM)
    elapsed = spawn_seconds(SETUP_PROGRAM)
    return elapsed * REF_IMPORT_SECONDS / reference, elapsed


def end_to_end(bench: Bench, seconds: float) -> tuple[dict, list[str]]:
    bench.call(bench.instances[0])  # warm-up: lazy imports and first-call costs
    cycles: list[list] = []
    setups: list[float] = []
    started = time.perf_counter()
    while True:
        cycle_started = time.perf_counter()
        cycles.append(bench.cycle()[0])
        cycle_s = time.perf_counter() - cycle_started
        # Spread the set-up samples over the run, away from any one slow stretch.
        due = min(SETUP_REPEATS, 1 + int(SETUP_REPEATS * (time.perf_counter() - started) / seconds))
        while len(setups) < due:
            setups.append(setup_once())
        if time.perf_counter() - started + cycle_s > seconds:
            break
    while len(setups) < SETUP_REPEATS:
        setups.append(setup_once())
    peak = bench.peak_memory_mb()

    samples = [t for cycle in cycles for t in cycle if t is not None]
    if not samples:
        raise RuntimeError("no pipeline call succeeded")
    tail_s, tail_pct = tail(samples)
    ok = 1.0 - len(bench.failures) / bench.attempted
    metrics = {
        "run_s.p50": (statistics.median(samples), "s"),
        "run_s.tail": (tail_s, "s"),
        "setup_s": (statistics.median(s for s, _ in setups), "s"),
        "peak_mem_mb": (peak, "MB"),
        "ok_frac": (ok, "ratio"),
    }
    notes = [
        f"samples: {len(samples)} calls, {len(cycles)} cycles over {len(bench.instances)} instances; "
        f"tail is p{tail_pct:.1f}" + (" (ten samples beyond it)" if len(samples) > 10 else " (the maximum)"),
        f"failed_frac: {1.0 - ok:.4f} ({len(bench.failures)} of {bench.attempted} calls)",
        f"raw wall time: median call {statistics.median(bench.raw):.4f} s over "
        f"{len(bench.raw)} calls; median reference loop {statistics.median(bench.refs) * 1e3:.2f} ms "
        f"(scaled to {REF_SECONDS * 1e3:.2f} ms); times are in reference-host seconds",
        "setup_s samples, scaled (raw): " + ", ".join(f"{s:.3f} ({r:.3f})" for s, r in setups),
    ]
    return metrics, notes


def per_layer(bench: Bench, seed: int, seconds: float, workload: str) -> tuple[dict, list[str]]:
    from kernel_suite import run_suite
    from tracing import LAYERS, Tracer, dominant_layer, dominant_stage, summarize

    bench.instances = bench.instances[:TRACE_INSTANCES]
    bench.call(bench.instances[0])  # warm-up
    untraced: list[list] = []
    traced: list[list] = []
    summaries: list[list] = []
    last_spans: list[list] = []
    started = time.perf_counter()
    pair_s = 0.0
    while not traced or (time.perf_counter() - started + pair_s <= seconds and not bench.failures):
        pair_started = time.perf_counter()
        untraced.append(bench.cycle()[0])
        figures: list[dict | None] = []
        with Tracer() as tracer:

            def collect(elapsed):
                nonlocal last_spans
                figures.append(None if elapsed is None else summarize(tracer.spans, tracer.counters))
                if elapsed is not None:
                    last_spans = tracer.spans
                tracer.reset()

            times, scales = bench.cycle(tracer.span("run_pipeline", "cli", bench.cli.run_pipeline),
                                        collect)
        for fig, scale in zip(figures, scales):
            for key in fig or ():
                if is_ms(key):
                    fig[key] *= scale
        traced.append(times)
        summaries.append(figures)
        pair_s = time.perf_counter() - pair_started

    figures_per_instance = [
        {key: statistics.median(f[key] for f in done) for key in done[0]}
        for done in ([f for f in fs if f is not None] for fs in zip(*summaries))
        if done
    ]
    if not figures_per_instance:
        raise RuntimeError("no traced pipeline call succeeded")
    metrics = {
        key: statistics.mean(f[key] for f in figures_per_instance)
        for key in figures_per_instance[0]
    }
    kernel_s = metrics["kernels.ms"] / 1e3
    metrics["kernels.expansions_per_s"] = metrics["kernels.expansions"] / kernel_s if kernel_s else 0.0
    untraced_ms = statistics.mean(per_instance(untraced)) * 1e3
    metrics["trace.untraced_ms"] = untraced_ms
    metrics["trace.overhead_ms"] = statistics.mean(per_instance(traced)) * 1e3 - untraced_ms
    metrics["host.ref_ms"] = statistics.median(bench.refs) * 1e3
    metrics["host.ref_import_ms"] = statistics.median(
        spawn_seconds(REF_IMPORT_PROGRAM) for _ in range(REF_IMPORT_REPEATS)) * 1e3

    before = reference_seconds()
    suite = run_suite(seed, FIXTURES)
    suite_scale = 2 * REF_SECONDS / (before + reference_seconds())
    if suite["bad"]:
        bench.failures.append(f"kernel suite: {suite['bad']} wrong results")
    metrics["kernels.suite_ms"] = suite["kernels.suite_ms"] * suite_scale
    metrics["kernels.suite_expansions"] = suite["kernels.suite_expansions"]

    layer, share = dominant_layer(metrics)
    stage, stage_share = dominant_stage(last_spans)
    os.makedirs(TRACE_DIR, exist_ok=True)
    trace_path = os.path.join(TRACE_DIR, f"{workload}-seed{seed}.json")
    with open(trace_path, "w", encoding="ascii") as handle:
        json.dump({"workload": workload, "seed": seed, "backend": suite["backend"],
                   "fields": ["name", "layer", "start", "end", "parent"],
                   "spans": last_spans}, handle)
    notes = [
        f"dominant layer: {layer} ({share:.0%} of self time); "
        f"dominant stage: {stage} ({stage_share:.0%} of the last traced call)",
        "self ms per call: " + ", ".join(
            f"{name}={metrics[name + '.self_ms' if name != 'kernels' else 'kernels.ms']:.1f}"
            for name in LAYERS),
        f"{len(traced)} traced cycles of {len(bench.instances)} calls; "
        f"kernel suite: {suite['cases']} cases on {suite['backend']}",
        f"spans of the last traced call: {os.path.relpath(trace_path, ROOT)}",
    ]
    out = {}
    for key, value in metrics.items():
        if is_ms(key):
            unit = "ms"
        elif key.endswith("_per_s"):
            unit = "1/s"
        elif key.endswith("_ratio"):
            unit = "ratio"
        else:
            unit = "count"
        out[key] = (value, unit)
    return out, notes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "templater")):
        print(f"error: no templater package under {SRC}", file=sys.stderr)
        return 2
    if hasattr(os, "sched_setaffinity"):
        # One CPU for the calls, the reference loop and the set-up spawns, so
        # the reference sees the same contention as what it scales.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path[:0] = [HERE, SRC]
    import workloads
    from templater.kernels import BACKEND

    with tempfile.TemporaryDirectory(prefix=".perfbench-work-", dir=ROOT) as work_dir:
        instances = workloads.instances_for(args.workload, args.seed, work_dir, FIXTURES)
        bench = Bench(instances, work_dir)
        if args.trace:
            metrics, notes = per_layer(bench, args.seed, args.seconds, args.workload)
        else:
            metrics, notes = end_to_end(bench, args.seconds)

    print(f"workload {args.workload}, seed {args.seed}, backend {BACKEND}, "
          f"python {sys.version.split()[0]}")
    for note in notes:
        print(note)
    for failure in bench.failures[:10]:
        print(f"FAILED {failure}")
    for key, (value, unit) in metrics.items():
        print(f"{key:<42} {value:>14.6g} {unit}")
    correct = not bench.failures
    print(json.dumps({
        "correct": correct,
        "attempted": bench.attempted,
        "failed": len(bench.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
