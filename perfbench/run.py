"""icalc benchmark: seeded workloads against the public API, every answer checked.

    python3 perfbench/run.py --workload scenarios --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; icalc is imported from ./src.
Load model: closed loop, one client, one process; each op starts when
the previous one returns.

--trace 0 prints the end-to-end metrics.  The run passes over one
seeded op list until --seconds of op time, and times each op by its
fastest pass.  Each pass starts with a fresh import of icalc, timed as
set-up.  Times are reported at a reference speed (see Machine).
Outputs are checked after each round (see workloads.py), outside the
timed region.

--trace 1 prints the per-module metrics instead.  It repeats round 0,
alternately untraced and traced, until --seconds of op time, and
reports the fastest traced repetition (counts repeat exactly) and the
tracing overhead against the untraced repetitions.

The last line of stdout is the result: {"correct", "attempted",
"failed", "metrics"}.  The line before it records the environment.  A
copy of both, and in traced runs the spans, go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import heapq
import importlib
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

sys.path.insert(0, str(HERE))
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, basis_cache  # noqa: E402

PASSES = 5  # nominal passes over the op list; an op's latency is its fastest
SETUPS_PER_PASS = 3
OP_LIMIT_S = 10.0  # an op running longer fails and ends the run
RUN_LIMIT_S = 120.0  # no new op starts after this much time in the run
PROBE_EVERY_S = 0.2
PROBE_REF_S = 0.00045  # probe time on an unloaded CPU of a 2.1 GHz host, Python 3.11

END_TO_END = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "groebner.groebner_basis.self_ms": "ms",
    "groebner.normal_form.self_ms": "ms",
    "groebner.self_ms": "ms",
    "groebner.spairs_reduced": "count",
    "groebner.zero_reductions": "count",
    "groebner.useful_reduction_ratio": "ratio",
    "groebner.basis_size_max": "count",
    "groebner.normal_form.calls": "count",
    "groebner.groebner_basis.calls": "count",
    "groebner.groebner_basis.misses": "count",
    "groebner.cache_hit_ratio": "ratio",
    "groebner.cache_entries_end": "count",
    "monomials.mono_divides.calls": "count",
    "field.inv.calls": "count",
    "poly.self_ms": "ms",
    "ideals.intersect.calls": "count",
    "ideals.intersect.ms": "ms",
    "ideals.colon.calls": "count",
    "ideals.ring_map_kernel.ms": "ms",
    "ideals.self_ms": "ms",
    "rings.make_ring.calls": "count",
    "rings.make_ring.ms": "ms",
    "rings.self_ms": "ms",
    "closure.self_ms": "ms",
    "closure.decomposition_closure.calls": "count",
    "closure.decomposition_closure.ms": "ms",
    "closure.colon_capture_report.ms": "ms",
    "closure.bounded_frobenius_check.ms": "ms",
    "script.parse_script.ms": "ms",
    "script.run_script.self_ms": "ms",
    "script.self_ms": "ms",
    "trace.outside_spans_ms": "ms",
    "trace.overhead_frac": "ratio",
}


class OpTimeout(BaseException):
    """Raised by the alarm inside an op that overran OP_LIMIT_S.

    A BaseException, so that no handler in the program swallows it.
    """


def _alarm(signum, frame):
    raise OpTimeout


def _probe():
    """A fixed slice of work shaped like icalc's inner loops."""
    p = 32003
    f = {(i, j, k): (7 * i + 3 * j + k + 1) % p for i in range(4) for j in range(4) for k in range(3)}
    g = {(i, j, 0): (i + 2 * j + 1) % p for i in range(3) for j in range(3)}
    out = {}
    for m, c in f.items():
        for n, d in g.items():
            mm = tuple(x + y for x, y in zip(m, n))
            out[mm] = (out.get(mm, 0) + c * d) % p
    heap = [(sum(m), m) for m in out]
    heapq.heapify(heap)
    while heap:
        heapq.heappop(heap)


def probe_s():
    """Fastest of three timed runs of the probe."""
    best = float("inf")
    for _ in range(3):
        t0 = perf_counter()
        _probe()
        best = min(best, perf_counter() - t0)
    return best


class Machine:
    """How fast this host runs right now; keeps the process on its fastest CPU.

    The CPUs of this host slow down, one at a time or together, by up to
    1.9x for seconds to minutes, under load from outside the container.
    Every PROBE_EVERY_S, between ops and outside the timed region, the
    probe is timed on each allowed CPU and the process moves to the
    fastest.  ``scale``, PROBE_REF_S over that probe time, turns a time
    measured now into one at the reference speed.  The probe tracks the
    slowdown of icalc's ops to within about 5% where raw op times vary
    by 35% (interquartile range over 1-s windows).
    """

    def __init__(self):
        self.original = os.sched_getaffinity(0)
        self.cpus = sorted(self.original)
        self.due = 0.0
        self.scale = 1.0

    def update(self):
        now = perf_counter()
        if now < self.due:
            return self.scale
        self.due = now + PROBE_EVERY_S
        timings = {}
        try:
            for cpu in self.cpus if len(self.cpus) > 1 else ():
                os.sched_setaffinity(0, {cpu})
                timings[cpu] = probe_s()
            if timings:
                os.sched_setaffinity(0, {min(timings, key=timings.get)})
        except OSError:  # not permitted here: stay where the scheduler puts us
            self.cpus, timings = [], {}
            self.release()
        self.scale = PROBE_REF_S / (min(timings.values()) if timings else probe_s())
        return self.scale

    def release(self):
        try:
            os.sched_setaffinity(0, self.original)
        except OSError:
            pass


def fresh_import():
    for name in [n for n in sys.modules if n == "icalc" or n.startswith("icalc.")]:
        del sys.modules[name]
    return importlib.import_module("icalc")


class Runner:
    """Runs one workload's ops; keeps counts, failures and set-up times."""

    def __init__(self, workload):
        self.workload = workload
        self.started = perf_counter()
        self.attempted = self.failed = self.passes = 0
        self.failures = []
        self.failed_ops = set()  # indices of ops with a failed run
        self.setup_s = []
        self.op_seconds = 0.0
        self.stopped = None
        self.machine = Machine()

    def setup(self):
        """Import icalc afresh and build the shared inputs, SETUPS_PER_PASS times."""
        for _ in range(SETUPS_PER_PASS):
            scale = self.machine.update()
            t0 = perf_counter()
            ic = fresh_import()
            self.workload.prepare(ic)
            self.setup_s.append((perf_counter() - t0) * scale)
        self.cache = basis_cache(ic)

    def run_round(self, ops, first=0, tracer=None):
        """Run ops (numbered from first), then check them.

        Returns their latencies at the reference speed, and the traced
        figures when a tracer is given.
        """
        wl, cache = self.workload, self.cache
        outputs, latencies, raw_s = [], [], 0.0
        cache.clear()
        if tracer:
            tracer.install()
        try:
            for k, op in enumerate(ops):
                if perf_counter() - self.started > RUN_LIMIT_S:
                    self.stopped = f"run limit of {RUN_LIMIT_S:g} s reached"
                    break
                if wl.cold:
                    cache.clear()
                scale = self.machine.update()
                signal.setitimer(signal.ITIMER_REAL, OP_LIMIT_S)
                t0 = perf_counter()
                try:
                    out = tracer.run_op(k, wl.execute, op) if tracer else wl.execute(op)
                except OpTimeout:
                    out = OpTimeout(f"exceeded the op limit of {OP_LIMIT_S:g} s")
                    self.stopped = "an op exceeded its time limit"
                except Exception as exc:  # a raising op fails; the run goes on
                    out = exc
                finally:
                    signal.setitimer(signal.ITIMER_REAL, 0)
                latency = perf_counter() - t0
                raw_s += latency
                if latency > PROBE_EVERY_S:  # long op: average the speed before and after
                    scale = (scale + self.machine.update()) / 2
                latencies.append(latency * scale)
                outputs.append(out)
                if self.stopped:
                    break
            per_layer = tracer.metrics(raw_s) if tracer else None
        finally:
            if tracer:
                tracer.uninstall()
        for k, (op, out) in enumerate(zip(ops, outputs)):
            if isinstance(out, BaseException):
                problem = f"{type(out).__name__}: {out}"
            else:
                problem = wl.check(op, out)
            self.attempted += 1
            if problem:
                self.failed += 1
                self.failed_ops.add(first + k)
                if len(self.failures) < 5:
                    self.failures.append(problem)
        self.op_seconds += raw_s
        return latencies, per_layer


def fastest(best, latencies):
    """Element-wise minimum of two latency lists; the longer one's tail is kept."""
    n = min(len(best), len(latencies))
    longer = best if len(best) > len(latencies) else latencies
    return [min(a, b) for a, b in zip(best, latencies)] + longer[n:]


def measure(runner, seconds):
    """Passes over one op list until --seconds of op time; each op timed by its fastest pass.

    The list holds as many rounds as fit into seconds / PASSES of op time
    at the workload's nominal round time, so it depends on the seed and
    --seconds only.  A pass that would end the run beyond 1.1 * seconds
    is not started.  Each pass starts with a fresh import of icalc.
    Taking each op's fastest pass drops what the speed scaling of
    Machine leaves of the host's slow spells.
    """
    wl = runner.workload
    nrounds = max(1, int(seconds / PASSES / wl.round_s))
    best = []
    while True:
        runner.setup()
        latencies = []
        for r in range(nrounds):
            latencies += runner.run_round(wl.round_ops(r), len(latencies))[0]
            if runner.stopped:
                break
        best = fastest(best, latencies)
        runner.passes += 1
        if runner.stopped or runner.op_seconds * (1 + 1 / runner.passes) > 1.1 * seconds:
            break
    lat_ms = [x * 1000 for x in best]
    passed = len(best) - len(runner.failed_ops)
    return {
        "ops_per_s": passed / sum(best),
        "op_p50_ms": statistics.median(lat_ms),
        "op_p90_ms": statistics.quantiles(lat_ms, n=10)[-1] if len(lat_ms) > 1 else lat_ms[0],
    }, len(best)


def measure_traced(runner, seconds):
    """Round 0, untraced then traced, repeated until the op time reaches seconds.

    Reports the fastest traced repetition, whose self times add up to
    its op time; counts repeat exactly.  The overhead compares each op's
    fastest traced run with its fastest untraced one.
    """
    wl = runner.workload
    plain, traced, fastest_rep = [], [], None
    runner.setup()
    while True:
        plain = fastest(plain, runner.run_round(wl.round_ops(0))[0])
        tracer = Tracer(wl.ic, runner.cache)
        latencies, per_layer = runner.run_round(wl.round_ops(0), tracer=tracer)
        traced = fastest(traced, latencies)
        if fastest_rep is None or per_layer["trace.op_wall_ms"] < fastest_rep[0]["trace.op_wall_ms"]:
            fastest_rep = per_layer, tracer.spans()
        runner.passes += 1
        if runner.stopped or runner.op_seconds >= seconds:
            break
    metrics, spans = fastest_rep
    metrics["trace.overhead_frac"] = sum(traced) / sum(plain) - 1
    return metrics, spans


def environment(args, runner, ops_per_pass):
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "icalc").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "commit": commit,
        "icalc_sources_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "passes": runner.passes,
        "ops_per_pass": ops_per_pass,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "fail_frac": runner.failed / runner.attempted if runner.attempted else 0.0,
        "op_limit_s": OP_LIMIT_S,
        "stopped": runner.stopped,
        "failures": runner.failures,
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run(argv=None, workload=None):
    """Run the benchmark; returns (environment, result).

    workload, when given, replaces the one the arguments name (tests use
    it to plant a corrupted reference).
    """
    args = parse_args(argv)
    if not (SRC / "icalc" / "__init__.py").is_file():
        raise FileNotFoundError(f"no icalc sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    runner = Runner(workload or WORKLOADS[args.workload](args.seed))
    previous = signal.signal(signal.SIGALRM, _alarm)
    try:
        if args.trace:
            values, spans = measure_traced(runner, args.seconds)
            ops_per_pass, units = None, PER_LAYER
        else:
            (values, ops_per_pass), spans = measure(runner, args.seconds), None
            values["setup_s"] = statistics.median(runner.setup_s)
            values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            units = END_TO_END
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
        runner.machine.release()
    env = environment(args, runner, ops_per_pass)
    result = {
        "correct": runner.failed == 0 and runner.attempted > 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(OUT / f"{stem}.json", "w") as fh:
        json.dump({"env": env, "result": result, "all_metrics": values}, fh, indent=1)
    if spans is not None:
        with open(OUT / f"{stem}-spans.jsonl", "w") as fh:
            for row in spans:
                fh.write(json.dumps(row) + "\n")
    return env, result


def main(argv=None):
    try:
        env, result = run(argv)
    except FileNotFoundError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"env": env}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
