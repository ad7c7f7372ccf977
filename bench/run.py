#!/usr/bin/env python3
"""Benchmark of l2b on two workloads, checked against an independent oracle.

    python3 bench/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]

With ``--workload`` it runs that workload in this process; without, it runs
every workload of BENCHMARK.json, each in its own process.  A run sets the
workload up, asks the oracle for every expected verdict, then repeats whole
passes over the workload's operations until they have taken about
``--seconds``.  Every time, ``--seconds`` too, is in reference seconds (see
`ReferenceClock`).  ``--trace 1`` instead reports per-layer self times from
spans around l2b's public functions.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import gc
import importlib
import json
import math
import os
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

import oracle  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPS = 3
SETUP_EVERY_S = 2.0
CLI_PROBES = 5
CHILD_TIMEOUT_S = 150
# a run stops early after this many times --seconds of wall time, so that it
# ends in time however slow the machine is
WALL_CAP_FACTOR = 3
REF_ITERATIONS = 120
REF_NOMINAL_S = 0.00075
REF_INTERVAL_S = 0.03
REF_HALO_S = 0.25

END_TO_END = {
    "setup_s": "s",
    "docs_per_s": "1/s",
    "doc_p50_ms": "ms",
    "doc_p90_ms": "ms",
    "scaling_exponent": "slope",
    "peak_rss_mb": "MB",
}


def per_layer_units() -> dict[str, str]:
    units = {"cli.interpreter_ms": "ms", "cli.import_ms": "ms"}
    for stem in tracing.TIMED:
        units[f"{stem}_s"] = "s"
        units[f"{stem}.calls"] = "count"
    units.update({name: "count" for name in tracing.COUNTED})
    units["trace.overhead_pct"] = "%"
    return units


# --- the reference clock --------------------------------------------------------


def reference_task():
    """A fixed piece of exact-arithmetic work, like the kernel's inner loops."""
    acc = {}
    for i in range(REF_ITERATIONS):
        key = (i % 7, i % 11)
        acc[key] = acc.get(key, Fraction(0)) + Fraction(i, 7) * Fraction(3, i + 1)
    return acc


class ReferenceClock:
    """Converts measured intervals to reference seconds.

    The speed of the machines this runs on drifts by up to 2x, over minutes
    and within a single one-second operation (other tenants share the
    cores), which no run length averages out.  So while the clock runs, a
    timer signal interrupts the process every REF_INTERVAL_S and times
    `reference_task` there (a sample).  An interval is reported as its
    measured time, less the samples taken inside it, times REF_NOMINAL_S
    over the mean sample from REF_HALO_S before it to REF_HALO_S after it:
    the time it would have taken on a machine where the reference takes
    exactly REF_NOMINAL_S.  Samples are only taken in the main thread,
    between bytecodes, so they interrupt the operation where it stands.
    """

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (start, duration)

    def _sample(self, signum, frame):
        start = time.perf_counter()
        reference_task()
        self.samples.append((start, time.perf_counter() - start))

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, REF_INTERVAL_S, REF_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _between(self, start: float, end: float) -> list[float]:
        """Durations of the samples that started in [start, end)."""
        first = bisect.bisect_left(self.samples, (start,))
        return [d for _, d in self.samples[first:bisect.bisect_left(self.samples, (end,))]]

    def factor(self, start: float, end: float) -> float:
        """Reference seconds per measured second around [start, end]."""
        return REF_NOMINAL_S / statistics.fmean(self._between(start - REF_HALO_S,
                                                              end + REF_HALO_S))

    def scale(self, start: float, end: float) -> float:
        """The interval [start, end] of this process's work, in reference seconds."""
        return (end - start - sum(self._between(start, end))) * self.factor(start, end)


# --- the program under test ------------------------------------------------------


def import_l2b():
    """Import l2b afresh from this checkout (dropping any earlier import)."""
    for name in [m for m in sys.modules if m == "l2b" or m.startswith("l2b.")]:
        del sys.modules[name]
    cli = importlib.import_module("l2b.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"l2b was imported from {cli.__file__}, not from {SRC}")
    return cli


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


# --- checks ----------------------------------------------------------------------


def _verdicts(report: dict) -> dict[str, bool]:
    """The overall verdict and, for the three-way check, each verifier's."""
    out = {"verdict": report["verdict"] == "pass"}
    if report["kind"] == "lie2_bialgebra" and report["method"] in ("auto", "all"):
        for name in ("def", "matched", "weil"):
            checks = [c["pass"] for c in report["checks"] if c["id"].startswith(name + ".")]
            if checks:
                out[name] = all(checks)
    return out


def check_report(op, out: bytes, again: bytes) -> tuple[bool, list[str]]:
    problems = []
    if again != out:
        problems.append("the same report serialized to different bytes")
    report = json.loads(out)
    for c in report["checks"]:
        if not c["pass"] and c["witness"] is None:
            problems.append(f"failing check {c['id']} has no witness")
    want = "valid" if op.expected_valid else "invalid"
    for name, ok in _verdicts(report).items():
        if ok != op.expected_valid:
            problems.append(f"{name}={'pass' if ok else 'fail'} on a {want} instance")
    return report["verdict"] == "pass", problems


def is_known_defect(op, problems: list[str]) -> bool:
    """The def verifier rejecting a valid bialgebra-derived pair, and nothing else."""
    return op.known_defect and op.expected_valid and sorted(problems) == sorted(
        ["failing check agreement has no witness", "def=fail on a valid instance",
         "verdict=fail on a valid instance"]
    )


# --- running operations ---------------------------------------------------------


class InProcess:
    """parse_document -> run_verifier -> serialize_report, inside this process."""

    def __init__(self):
        self.documents = sys.modules["l2b.documents"]
        self.tracer = None

    def run(self, op):
        """The measured interval [start, end] and the checks' (passed, problems)."""
        D = self.documents
        start = time.perf_counter()
        doc = D.parse_document(op.data)
        report = D.run_verifier(doc, op.method)
        out = D.serialize_report(doc, op.method, report)
        end = time.perf_counter()
        if self.tracer is not None:
            self.tracer.paused = True
        try:
            return (start, end), check_report(op, out, D.serialize_report(doc, op.method, report))
        finally:
            if self.tracer is not None:
                self.tracer.paused = False


def run_pass(ops, runner, order, clock, tracer=None, between=None):
    """One pass over every operation, in the given order.

    ``between`` and a garbage collection run before each operation, outside
    the measured time.  Returns (reference time, passed, problems, known
    defect, measured time) per operation, indexed like ``ops``.
    """
    results = [None] * len(ops)
    for pos in order:
        if between is not None:
            between()
        # each operation starts from an empty collector, whatever ran before it
        gc.collect()
        op = ops[pos]
        span = tracer.record("op " + op.label) if tracer is not None else contextlib.nullcontext()
        start = time.perf_counter()
        with span:
            try:
                interval, (passed, problems) = runner.run(op)
            except Exception as exc:  # an operation that raises counts as failed
                interval = (start, time.perf_counter())
                passed, problems = False, [f"{type(exc).__name__}: {exc}"]
        results[pos] = (interval, passed, problems)
    for pos, op in enumerate(ops):
        interval, passed, problems = results[pos]
        if op.twin_of is not None and passed != results[op.twin_of][1]:
            problems = problems + ["verdict differs from its basis-changed twin"]
        results[pos] = (clock.scale(*interval), passed, problems,
                        is_known_defect(op, problems), interval[1] - interval[0])
    return results


def run_passes(ops, runner, seconds: float, rng, clock, tracer=None, between=None):
    """Whole passes, as many as brings their total time nearest ``seconds``.

    The total is in reference seconds, so the number of passes depends on
    the program's speed, not on the machine's at the time.  Only a machine
    so slow that the run reaches WALL_CAP_FACTOR times ``seconds`` of wall
    time stops it sooner.  Each pass runs the operations in a fresh seeded
    order, so that a slow spell does not always land on the same operations.
    """
    passes = []
    total = 0.0
    deadline = time.perf_counter() + WALL_CAP_FACTOR * seconds
    while not passes or (total + total / len(passes) / 2 < seconds
                         and time.perf_counter() < deadline):
        order = list(range(len(ops)))
        rng.shuffle(order)
        passes.append(run_pass(ops, runner, order, clock, tracer, between))
        total += sum(r[0] for r in passes[-1])
    return passes


# --- metrics ---------------------------------------------------------------------


def slope(xs, ys) -> float:
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def end_to_end(ops, passes, setup_times) -> dict[str, float]:
    times = [r[0] for p in passes for r in p]
    # each operation's median over the passes damps the machine's slow spells
    per_op = [statistics.median(p[i][0] for p in passes) for i in range(len(ops))]
    return {
        "setup_s": statistics.median(setup_times),
        "docs_per_s": len(ops) / sum(per_op),
        "doc_p50_ms": 1000 * statistics.median(times),
        "doc_p90_ms": 1000 * statistics.quantiles(times, n=10, method="inclusive")[-1],
        "scaling_exponent": slope(*zip(*((math.log(op.dim), math.log(t))
                                         for op, t in zip(ops, per_op)))),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def cli_probes(env, clock) -> dict[str, float]:
    """Medians of CLI_PROBES fresh interpreters: wall time to run ``pass``, and
    the time ``import l2b.cli`` takes inside one.

    The samples interrupt this process, not the child, so nothing is
    subtracted; the child's time is only scaled.
    """
    timed_import = ("import time; t = time.perf_counter(); import l2b.cli; "
                    "print(time.perf_counter() - t)")

    def probe(code, measured):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                              capture_output=True, timeout=CHILD_TIMEOUT_S)
        end = time.perf_counter()
        return measured(proc, end - start) * clock.factor(start, end)

    probes = {
        "cli.interpreter_ms": lambda: probe("pass", lambda proc, wall: wall),
        "cli.import_ms": lambda: probe(timed_import, lambda proc, wall: float(proc.stdout)),
    }
    return {k: 1000 * statistics.median(f() for _ in range(CLI_PROBES))
            for k, f in probes.items()}


def layer_metrics(tracer, first: int, last: int, passes: int, scale: float, stems):
    """Self time (times ``scale``) and calls per pass, per stem, over spans[first:last]."""
    total, calls = tracer.self_times(first, last)
    out = {}
    for stem in stems:
        out[f"{stem}_s"] = total.get(stem, 0.0) * scale / passes
        out[f"{stem}.calls"] = calls.get(stem, 0) / passes
    return out


# --- one workload ----------------------------------------------------------------


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import_l2b()  # the first import may compile; it is not part of set-up
    plan = workloads.PLANNERS[name](seed)
    build = workloads.BUILDERS[name]
    setup_times = []  # measured intervals (start, end)

    def set_up():
        gc.collect()
        start = time.perf_counter()
        import_l2b()
        ops = build(plan)
        setup_times.append((start, time.perf_counter()))
        return ops

    # The machine's speed drifts on a scale of seconds, so set-up is also
    # repeated every SETUP_EVERY_S during the passes (outside the measured
    # time) and setup_s is the median over the whole run.
    next_set_up = [0.0]

    def spread_set_up():
        if time.perf_counter() >= next_set_up[0]:
            set_up()
            next_set_up[0] = time.perf_counter() + SETUP_EVERY_S

    with ReferenceClock() as clock:
        for _ in range(SETUP_REPS):
            ops = set_up()
        for op in ops:
            op.expected_valid = oracle.expected_valid_bytes(op.data)
        order_rng = random.Random(seed)
        if trace:
            metrics, passes = traced_run(name, plan, build, ops, seconds, order_rng, clock)
            units = per_layer_units()
        else:
            next_set_up[0] = time.perf_counter() + SETUP_EVERY_S
            passes = run_passes(ops, InProcess(), seconds, order_rng, clock,
                                between=spread_set_up)
            units = END_TO_END
    setup_scaled = [clock.scale(*s) for s in setup_times]
    if not trace:
        metrics = end_to_end(ops, passes, setup_scaled)

    flat = [(op, r) for p in passes for op, r in zip(ops, p)]
    failures = [(op.label, r[2]) for op, r in flat if r[2]]
    unexpected = [(op.label, r[2]) for op, r in flat if r[2] and not r[3]]
    result = {
        "correct": not unexpected,
        "attempted": len(flat),
        "failed": len(failures),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    detail = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "passes": len(passes), "operations_per_pass": len(ops), "samples": len(flat),
        "setup_times_s": setup_scaled,
        "setup_measured_s": [end - start for start, end in setup_times],
        "reference_samples_s": clock.samples,  # (start, duration) pairs
        "operations": [
            {"label": op.label, "dim": op.dim, "method": op.method,
             "expected_valid": op.expected_valid, "known_defect": op.known_defect,
             "times_s": [p[i][0] for p in passes], "measured_s": [p[i][4] for p in passes]}
            for i, op in enumerate(ops)
        ],
        "failures": dict(failures),
        "result": result,
    }
    (ROOT / f"bench_result_{name}.json").write_text(json.dumps(detail, indent=1) + "\n")
    for label, problems in dict(unexpected or failures).items():
        print(f"{name}: FAILED {label}: {'; '.join(problems)}")
    print(f"{name}: {len(passes)} passes x {len(ops)} operations, "
          f"{result['attempted']} attempted, {result['failed']} failed, "
          f"{len(unexpected)} unexpected; percentiles over {len(flat)} samples")
    for key, value in result["metrics"].items():
        print(f"{name}: {key} = {value['value']:.6g} {value['unit']}")
    return result


def traced_run(name, plan, build, ops, seconds, order_rng, clock):
    """Per-layer metrics and the passes run: half the run untraced, then half traced."""
    tracer = tracing.Tracer()
    import_l2b()
    tracer.install()
    with tracer.record("setup"):
        build(plan)
    tracer.uninstall()
    catalog = [s for s in tracing.TIMED if s.startswith("catalog.")]
    metrics = layer_metrics(tracer, 0, len(tracer.spans), 1,
                            clock.factor(*tracer.spans[0][1:3]), catalog)

    def rate(passes):
        return sum(len(p) for p in passes) / sum(r[0] for p in passes for r in p)

    runner = InProcess()
    untraced = run_passes(ops, runner, seconds / 2, order_rng, clock)
    tracer.counts.clear()
    first_span, start = len(tracer.spans), time.perf_counter()
    tracer.install()
    runner.tracer = tracer
    traced = run_passes(ops, runner, seconds / 2, order_rng, clock, tracer)
    tracer.uninstall()
    stems = [s for s in tracing.TIMED if not s.startswith("catalog.")]
    metrics.update(layer_metrics(tracer, first_span, len(tracer.spans), len(traced),
                                 clock.factor(start, time.perf_counter()), stems))
    metrics.update({k: tracer.counts.get(k, 0) / len(traced) for k in tracing.COUNTED})
    metrics.update(cli_probes(child_env(), clock))
    metrics["trace.overhead_pct"] = 100 * (rate(untraced) - rate(traced)) / rate(untraced)
    tracer.dump(ROOT / f"bench_trace_{name}.json")
    return metrics, untraced + traced


def run_all(args) -> int:
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True,
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            code = proc.returncode or 1
            continue
        result = json.loads(lines[-1])
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            summary["metrics"][f"{name}.{key}"] = value
    print(json.dumps(summary))
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "l2b" / "__init__.py").is_file():
        print(f"error: no l2b sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload is None:
        return run_all(args)
    sys.path.insert(0, str(SRC))
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
