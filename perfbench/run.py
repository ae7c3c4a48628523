"""Layered benchmark for einpoly.

Usage (from the repository root):

    python3 perfbench/run.py --workload analyze_catalog --seed 1 --seconds 36 --trace 0

Workloads: analyze_catalog, hull_volume, solver_d3 (see workloads.py).
The benchmark imports einpoly from ./src, builds the workload's inputs from
the seed, and runs whole passes over them, in one closed loop (one input
at a time), for as long as the next pass is expected to fit in --seconds
(always at least one pass), then runs the inputs faster than 0.5 s again
until --seconds are up.  Each input's latency is the median of its runs;
wall_s is the sum of those, and the percentiles are taken over them.
End-to-end times are in reference seconds (see REFERENCE_S), which take
out the drift of the machine's speed.  Every output is checked by the
oracle.  The default seed is 1; a claim resting on solver_d3 should be
rerun on a second seed.

With --trace 0 it reports the end-to-end metrics; with --trace 1 it runs
each input once untraced and once traced and reports the per-layer metrics
(span self times in measured seconds, reference-clock samples included;
counts from return values) and the tracing overhead (in reference
seconds), and writes the spans to .perfbench/trace-<workload>-<seed>.json.
The last line of standard output is one JSON object: correct, attempted,
failed, metrics.  attempted and failed count inputs, each once however
often it ran.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import signal
import statistics
import sys
import time
from fractions import Fraction

import generator
import oracle
import workloads
from spans import Tracer, self_time_by_name

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(ROOT, ".perfbench")

# Set-up is short, so it is repeated and the median reported.
SETUP_REPEATS = 11
# Inputs faster than this (in reference seconds) are run again in the time
# a whole pass no longer fits in.
CHEAP_S = 0.5

# Span names whose work `analyze` needs exactly once per input; the
# standalone count_complex span is left out because real_positive repeats
# it, and bound_report because it rebuilds earlier stages.
ONCE_EACH = (
    "polytope.hull",
    "infinity.flat_complex",
    "infinity.delta_min",
    "polytope.face_lattice",
    "polytope.volume",
    "infinity.b2",
    "curvature.scalar_curvature",
    "curvature.newton",
    "faces.census",
    "faces.verdicts",
    "solver.real_positive",
)
TIMED_SPANS = ONCE_EACH + (
    "homspace.load",
    "solver.count_complex",
    "solver.bound_report",
    "report.analyze",
    "report.render",
    "cli.main",
)
COUNTS = (
    "homspace.weights",
    "homspace.rejected",
    "polytope.hull_calls",
    "polytope.vertices",
    "polytope.facets",
    "polytope.faces",
    "polytope.nu",
    "infinity.maximal_flats",
    "curvature.support",
    "faces.census_faces",
    "faces.marked",
    "faces.verdicts",
    "solver.complex",
    "solver.real",
    "solver.positive",
)


# On a shared 2-core VM the speed of the machine was seen to drift by up to
# 2x within minutes, and within a single 10 s call.  So every end-to-end
# time is reported in reference seconds: the measured seconds, scaled by
# REFERENCE_S over the time a fixed loop of the same kind of Python work
# took around the call.  That is the mean of the loop's time just before
# the call, just after it, and while it ran: a timer signal runs the loop
# every SAMPLE_EVERY_S seconds, and the time these samples take is taken
# out of the call.  Scaled by loop runs before and after alone, the
# Kaehler d = 8 input read from 3.3 to 6.2 reference seconds in seven
# runs; with the samples inside it as well, from 5.1 to 6.0, while its
# measured time went from 6.3 to 13.2 s.
REFERENCE_S = 0.0025
SAMPLE_EVERY_S = 0.2
# Loop runs just after each call; their median is the loop's time then.
EDGE_RUNS = 3


def _reference_loop() -> float:
    """Seconds taken by a fixed pure-Python loop of the kind einpoly runs:
    rational and integer arithmetic, a dict and a sort.  It is timed in the
    main thread's processor time, so that census threads holding the
    interpreter lock while it runs are not charged to it."""
    t0 = time.thread_time()
    acc, table = Fraction(0), {}
    for i in range(1, 500):
        acc += Fraction(i % 7 + 1, i) * Fraction(3, i + 1)
        table[i % 97] = table.get(i % 97, 0) + i * i
    sorted(table.items())
    return time.thread_time() - t0


class ReferenceClock:
    """Scales measured seconds to reference seconds; samples the reference
    loop on a timer signal while it is entered."""

    def __init__(self):
        self.samples = []  # loop seconds of the timer's samples
        self.paused = 0.0  # seconds the timer's samples took
        self.factors = []
        self._edge = self._edge_loop()

    @staticmethod
    def _edge_loop() -> float:
        # A timer sample inside these runs would be timed with them.
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        try:
            return statistics.median(_reference_loop() for _ in range(EDGE_RUNS))
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})

    def _sample(self, _signum, _frame):
        t0 = time.perf_counter()
        self.samples.append(_reference_loop())
        self.paused += time.perf_counter() - t0

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def timed(self, fn, *args):
        """fn(*args) -> (seconds, result); returns (reference seconds,
        result), without the time samples took while it ran."""
        n, paused = len(self.samples), self.paused
        seconds, result = fn(*args)
        seconds = max(seconds - (self.paused - paused), 0.0)
        before, self._edge = self._edge, self._edge_loop()
        factor = REFERENCE_S / statistics.mean([before, *self.samples[n:], self._edge])
        self.factors.append(factor)
        return seconds * factor, result


def _purge_einpoly():
    for name in [m for m in sys.modules if m == "einpoly" or m.startswith("einpoly.")]:
        del sys.modules[name]


def _setup(workload, seed, tracer):
    """Import einpoly afresh and build the inputs; returns (seconds, (api, inputs))."""
    _purge_einpoly()
    t0 = time.perf_counter()
    api = workloads.load_api()
    inputs = workload.build(api, seed, tracer)
    return time.perf_counter() - t0, (api, inputs)


class Tally:
    """Attempted and failed inputs, and the failures by input.  An input
    counts once however often a run repeats it, so that the counts depend
    on the inputs alone and not on how many repeats fit in the time; it
    fails if any of its runs fails."""

    def __init__(self):
        self.inputs = set()
        self.failures = {}
        self.missed = set()

    @property
    def attempted(self) -> int:
        return len(self.inputs)

    def add(self, inp, result):
        self.inputs.add(inp.id)
        if result.failed:
            self.failures.setdefault(inp.id, result.describe())
        if result.misses:
            self.missed.add(inp.id)


def _pass(workload, api, inputs, ctx, tally, clock, tracer=None):
    """One pass; returns the per-input reference seconds of the calls a
    user makes."""
    latencies = []
    for inp in inputs:
        # Each input starts from a collected heap, as a fresh process would,
        # so a collection triggered by an earlier input is not charged to it.
        gc.collect()
        if tracer is None:
            seconds, result = clock.timed(workload.run, api, inp, ctx)
        else:
            seconds, result = clock.timed(workload.trace, api, inp, ctx, tracer)
            if result.status == oracle.REJECTED:
                tracer.count("homspace.rejected")
        latencies.append(seconds)
        tally.add(inp, result)
    return latencies


def _end_to_end(workload, seed, seconds, clock):
    s, (api, inputs) = clock.timed(_setup, workload, seed, workloads.NULL)
    _check_import(api)
    setup_times = [s]
    ctx = workloads.Context(WORKDIR)
    tally = Tally()
    by_input = [[] for _ in inputs]
    deadline = time.perf_counter() + seconds
    todo = list(range(len(inputs)))
    while todo:
        latencies = _pass(workload, api, [inputs[i] for i in todo], ctx, tally, clock)
        for i, seconds_ in zip(todo, latencies):
            by_input[i].append(seconds_)
        # Set-up is repeated between rounds, so that its repetitions spread
        # over the run like the inputs' runs do; later rounds use its
        # modules and inputs, which are the same as before.
        if len(setup_times) < SETUP_REPEATS:
            s, (api, inputs) = clock.timed(_setup, workload, seed, workloads.NULL)
            setup_times.append(s)
        # Then every input again while a whole pass fits, and after that the
        # cheap inputs alone, so that their runs spread over the whole run.
        left = (deadline - time.perf_counter()) * statistics.median(clock.factors)
        typical = [statistics.median(times) for times in by_input]
        todo = list(range(len(inputs)))
        if sum(typical) > left:
            todo = [i for i in todo if typical[i] < CHEAP_S]
        if sum(typical[i] for i in todo) > left:
            todo = []
    while len(setup_times) < SETUP_REPEATS:
        setup_times.append(clock.timed(_setup, workload, seed, workloads.NULL)[0])
    # An input's latency is the median of its runs.
    typical = [statistics.median(times) for times in by_input]
    p90 = statistics.quantiles(typical, n=10, method="inclusive")[8]
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "wall_s": (sum(typical), "s"),
        "latency_p50_s": (statistics.median(typical), "s"),
        "latency_p90_s": (p90, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "completed_ratio": (1 - len(tally.failures) / tally.attempted, "ratio"),
    }
    print(f"runs per input: {min(map(len, by_input))} to {max(map(len, by_input))}; "
          f"latency samples: {len(typical)} inputs, {sum(x > p90 for x in typical)} beyond p90; "
          f"reference seconds per measured second: median {statistics.median(clock.factors):.3f}, "
          f"range {min(clock.factors):.3f} to {max(clock.factors):.3f}")
    return tally, metrics


def _per_layer(workload, seed, clock):
    tracer = Tracer()
    _s, (api, inputs) = _setup(workload, seed, tracer)
    _check_import(api)
    ctx = workloads.Context(WORKDIR)
    tally = Tally()
    # Each input runs untraced and then traced, so that both see the same
    # state of the machine.
    untraced = traced = 0.0
    for inp in inputs:
        untraced += _pass(workload, api, [inp], ctx, tally, clock)[0]
        traced += _pass(workload, api, [inp], ctx, tally, clock, tracer)[0]

    spans = tracer.spans
    by_name = self_time_by_name(spans)
    metrics = {f"{name}_s": (by_name.get(name, 0.0), "s") for name in TIMED_SPANS}
    metrics.update({name: (tracer.counts[name], "count") for name in COUNTS})
    analyzed = {s["input"] for s in spans if s["name"] == "report.analyze"}
    once = sum(s["end"] - s["start"] for s in spans
               if s["name"] in ONCE_EACH and s["input"] in analyzed)
    metrics["report.redundancy"] = (
        by_name.get("report.analyze", 0.0) / once if once else 0.0, "ratio")
    metrics["trace.overhead_s"] = (traced - untraced, "s")
    path = os.path.join(WORKDIR, f"trace-{workload.name}-{seed}.json")
    tracer.write(path)
    print(f"spans: {len(spans)} written to {os.path.relpath(path, ROOT)}; user path: "
          f"untraced {untraced:.3f} s, traced {traced:.3f} s (reference seconds)")
    return tally, metrics


def _check_import(api):
    where = os.path.dirname(os.path.abspath(api.package.__file__))
    if where != os.path.join(SRC, "einpoly"):
        raise SystemExit(f"error: einpoly imported from {where}, not from {SRC}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=generator.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "einpoly", "__init__.py")):
        print(f"error: no einpoly sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.makedirs(WORKDIR, exist_ok=True)
    # The census runs with its default worker count, as users get it.
    os.environ.pop("HS_THREADS", None)
    workload = workloads.WORKLOADS[args.workload]
    processors = os.sched_getaffinity(0)
    if workload.threaded_census:
        # Handing the interpreter lock between the census threads on two
        # processors made runs of the same inputs differ by up to 40%.
        processors = {min(processors)}
        os.sched_setaffinity(0, processors)
    print(f"workload: {workload.name}, seed {args.seed}, "
          f"census workers: {os.cpu_count()} (HS_THREADS unset), "
          f"processors: {sorted(processors)}")

    with ReferenceClock() as clock:
        if args.trace:
            tally, metrics = _per_layer(workload, args.seed, clock)
        else:
            tally, metrics = _end_to_end(workload, args.seed, args.seconds, clock)

    for name, (value, unit) in metrics.items():
        print(f"{name}: {value} {unit}")
    print(f"failed_ratio: {len(tally.failures)}/{tally.attempted}")
    for input_id, reason in tally.failures.items():
        print(f"failed: {input_id}: {reason}")
    print(json.dumps({
        "correct": not tally.missed,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
